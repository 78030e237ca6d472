// Request service classes shared by the fork-per-request workloads.
//
// Every request program (nginx_sim.h make_request_ir) runs a handshake of
// `work_units` MAC blocks; its class is drawn from these weights. The
// topology engine (workload/topology.h) compiles one master per class and
// serves each attempt from a CoW fork of it.
#pragma once

#include <vector>

#include "common/types.h"

namespace acs::workload {

/// Request size classes: the handshake's MAC-block count per class and
/// its selection weight in per-mille. The heavy tail (rare huge requests)
/// is what separates p50 from p999 under load.
struct ServiceClass {
  const char* name;
  u64 work_units;
  u64 weight_permille;
};

/// The default mix: mostly small requests, a 1% huge tail.
[[nodiscard]] const std::vector<ServiceClass>& default_service_classes();

}  // namespace acs::workload
