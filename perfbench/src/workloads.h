// The three workloads and the pinned-reference store their checks use.
#pragma once

#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "harness.h"

namespace perfbench {

/// Pinned output values, one "key value" pair per line. In pin mode every
/// expect() records the observed value and save() rewrites the file; in
/// check mode expect() compares against the loaded value, and a key that
/// was never pinned fails.
class Reference {
 public:
  Reference(std::string path, bool pin) : path_(std::move(path)), pin_(pin) {
    if (pin_) return;
    std::ifstream in(path_);
    if (!in) throw std::runtime_error("cannot read reference " + path_);
    std::string key;
    std::string value;
    while (in >> key >> value) values_[key] = value;
  }

  bool expect(const std::string& key, const std::string& observed) {
    if (pin_) {
      values_[key] = observed;
      return true;
    }
    const auto it = values_.find(key);
    return it != values_.end() && it->second == observed;
  }

  [[nodiscard]] bool pinning() const noexcept { return pin_; }

  void save() const {
    if (!pin_) return;
    std::ofstream out(path_);
    for (const auto& [key, value] : values_) out << key << " " << value << "\n";
    if (!out) throw std::runtime_error("cannot write reference " + path_);
  }

 private:
  std::string path_;
  bool pin_;
  std::map<std::string, std::string> values_;
};

[[nodiscard]] std::unique_ptr<Workload> make_calls(u64 seed, Reference& ref);
[[nodiscard]] std::unique_ptr<Workload> make_serving(u64 seed, Reference& ref);
[[nodiscard]] std::unique_ptr<Workload> make_mc(u64 seed, Reference& ref);

[[nodiscard]] inline std::unique_ptr<Workload> make_workload(
    const std::string& name, u64 seed, Reference& ref) {
  if (name == "calls") return make_calls(seed, ref);
  if (name == "serving") return make_serving(seed, ref);
  if (name == "mc") return make_mc(seed, ref);
  throw std::invalid_argument("unknown workload " + name);
}

}  // namespace perfbench
