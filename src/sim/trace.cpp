#include "sim/trace.hpp"

#include <sstream>
#include <stdexcept>

namespace dmr::sim {

void TraceRecorder::record(const std::string& name, double value) {
  series_[name].add_point(engine_->now(), value);
}

const util::StepSeries& TraceRecorder::series(const std::string& name) const {
  const auto it = series_.find(name);
  if (it == series_.end()) {
    throw std::out_of_range("TraceRecorder: unknown series " + name);
  }
  return it->second;
}

std::vector<std::string> TraceRecorder::names() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, unused] : series_) out.push_back(name);
  return out;
}

double TraceRecorder::average(const std::string& name, double t0,
                              double t1) const {
  return series(name).average(t0, t1);
}

std::string TraceRecorder::to_csv(const std::string& name) const {
  const auto& s = series(name);
  std::ostringstream out;
  out << "time," << name << '\n';
  for (std::size_t i = 0; i < s.size(); ++i) {
    out << s.times()[i] << ',' << s.values()[i] << '\n';
  }
  return out.str();
}

}  // namespace dmr::sim
