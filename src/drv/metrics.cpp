#include "drv/metrics.hpp"

namespace dmr::drv {

double gain_percent(double fixed, double flexible) {
  if (fixed <= 0.0) return 0.0;
  return (fixed - flexible) / fixed * 100.0;
}

}  // namespace dmr::drv
