#include "sim/isa.h"

#include <algorithm>

namespace acs::sim {

bool Program::is_function_entry(u64 addr) const noexcept {
  // function_entries is sorted (Assembler::assemble guarantees it), and
  // this check sits on the blr/br hot path: binary search, not a scan.
  return std::binary_search(function_entries.begin(), function_entries.end(),
                            addr);
}

std::string reg_name(Reg r) {
  if (r == Reg::kSp) return "sp";
  if (r == Reg::kXzr) return "xzr";
  return std::string{"x"}.append(std::to_string(static_cast<unsigned>(r)));
}

}  // namespace acs::sim
