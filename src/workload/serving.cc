#include "workload/serving.h"

namespace acs::workload {

const std::vector<ServiceClass>& default_service_classes() {
  // Weights sum to 1000. The 1.1% huge tail is what pushes p999 an order
  // of magnitude past p50 even before queueing delay.
  static const std::vector<ServiceClass> classes = {
      {"small", 4, 799},
      {"medium", 16, 150},
      {"large", 64, 40},
      {"huge", 256, 11},
  };
  return classes;
}

}  // namespace acs::workload
