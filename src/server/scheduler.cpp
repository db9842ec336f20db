#include "server/scheduler.hpp"

namespace spinn::server {

void SessionScheduler::submit(const std::shared_ptr<Session>& session) {
  if (!session->try_mark_queued()) return;  // already in the queue
  std::function<void()> hook;
  {
    MutexLock lk(&mu_);
    ready_.push_back(session);
    hook = submit_hook_;
  }
  cv_.notify_all();
  if (hook) hook();
}

void SessionScheduler::set_submit_hook(std::function<void()> hook) {
  MutexLock lk(&mu_);
  submit_hook_ = std::move(hook);
}

std::shared_ptr<Session> SessionScheduler::pop() {
  MutexLock lk(&mu_);
  if (ready_.empty()) return nullptr;
  auto s = ready_.front();
  ready_.pop_front();
  return s;
}

std::size_t SessionScheduler::depth() const {
  MutexLock lk(&mu_);
  return ready_.size();
}

bool SessionScheduler::drive() {
  std::shared_ptr<Session> s = pop();
  if (!s) return false;
  // service() clears the queued flag itself, under the session lock, when
  // the session runs out of work: a run request racing the slice's end
  // either lands before (and keeps it queued) or re-submits after.
  const bool more = s->service(slice_);
  {
    MutexLock lk(&mu_);
    if (more) ready_.push_back(std::move(s));  // round-robin: back of queue
    ++slices_;
  }
  cv_.notify_all();
  return true;
}

void SessionScheduler::drive_until_idle(const Session& session) {
  for (;;) {
    std::uint64_t seen = 0;
    {
      MutexLock lk(&mu_);
      seen = slices_;
    }
    if (!session.queued()) break;
    if (drive()) continue;
    // The queue is empty but the session is still queued: another thread
    // is servicing it.  Sleep until some slice ends or work lands.
    // Explicit predicate loop: the analysis can't see into a lambda.
    MutexLock lk(&mu_);
    while (slices_ == seen && ready_.empty()) cv_.wait(lk);
  }
  // Work this thread requeued must not strand once it stops driving.
  std::function<void()> hook;
  {
    MutexLock lk(&mu_);
    if (!ready_.empty()) hook = submit_hook_;
  }
  if (hook) hook();
}

}  // namespace spinn::server
