#include "dmr/session.hpp"

#include <stdexcept>
#include <utility>

namespace dmr {

Connection::Connection(Rms& rms, Clock clock)
    : rms_(rms), clock_(std::move(clock)) {}

JobId Connection::submit(JobSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  return rms_.submit(std::move(spec), clock_());
}

void Connection::schedule() {
  std::lock_guard<std::mutex> lock(mu_);
  rms_.schedule(clock_());
}

void Connection::cancel(JobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  rms_.cancel(id, clock_());
}

void Connection::job_finished(JobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  rms_.job_finished(id, clock_());
}

Outcome Connection::dmr_check(JobId id, const Request& request) {
  std::lock_guard<std::mutex> lock(mu_);
  return rms_.dmr_check(id, request, clock_());
}

Decision Connection::dmr_decide(JobId id, const Request& request) {
  std::lock_guard<std::mutex> lock(mu_);
  return rms_.dmr_decide(id, request, clock_());
}

Outcome Connection::dmr_apply(JobId id, const Decision& decision) {
  std::lock_guard<std::mutex> lock(mu_);
  return rms_.dmr_apply(id, decision, clock_());
}

void Connection::complete_shrink(JobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  rms_.complete_shrink(id, clock_());
}

JobView Connection::query(JobId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return rms_.query(id);
}

Session::Session(Rms& rms, Clock clock)
    : connection_(std::make_shared<Connection>(rms, std::move(clock))) {}

Session::Session(std::shared_ptr<Connection> connection)
    : connection_(std::move(connection)) {
  if (!connection_) {
    throw std::invalid_argument("Session: null connection");
  }
}

JobId Session::submit(JobSpec spec) {
  if (bound()) {
    throw std::logic_error("Session: already bound to job " +
                           std::to_string(job_));
  }
  job_ = connection_->submit(std::move(spec));
  return job_;
}

JobId Session::require_job() const {
  if (!bound()) throw std::logic_error("Session: no job bound");
  return job_;
}

Outcome Session::check(const Request& request) {
  return connection_->dmr_check(require_job(), request);
}

Decision Session::decide(const Request& request) {
  return connection_->dmr_decide(require_job(), request);
}

Outcome Session::apply(const Decision& decision) {
  return connection_->dmr_apply(require_job(), decision);
}

void Session::complete_shrink() {
  connection_->complete_shrink(require_job());
}

JobView Session::info() const { return connection_->query(require_job()); }

void Session::finish() {
  const JobId id = require_job();
  if (finished_.exchange(true)) return;
  try {
    connection_->job_finished(id);
  } catch (...) {
    // A failed report (e.g. the job never started) must not strand the
    // session: a later finish() or cancel() should still reach the RMS.
    finished_ = false;
    throw;
  }
}

void Session::cancel() {
  const JobId id = require_job();
  if (finished_.exchange(true)) return;
  try {
    connection_->cancel(id);
  } catch (...) {
    finished_ = false;
    throw;
  }
}

}  // namespace dmr
