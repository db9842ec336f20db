#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace spinn::sim {

std::uint64_t EventQueue::next_seq(ActorId actor) {
  if (actor >= seq_.size()) seq_.resize(actor + 1, 0);
  return seq_[actor]++;
}

void EventQueue::push(TimeNs when, EventPriority priority, ActorId key_actor,
                      ActorId exec_actor, EventAction action) {
  if (when < now_) {
    throw std::logic_error("EventQueue: scheduling into the past");
  }
  if (exec_actor == kRootActor) root_whens_.insert(when);
  heap_.push_back(Entry{
      EventKey{when, priority, key_actor, next_seq(key_actor)}, exec_actor,
      std::move(action)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule_at(TimeNs when, EventAction action,
                             EventPriority priority) {
  push(when, priority, current_exec_actor_, current_exec_actor_,
       std::move(action));
}

void EventQueue::schedule_in(TimeNs delay, EventAction action,
                             EventPriority priority) {
  schedule_at(now_ + delay, std::move(action), priority);
}

void EventQueue::schedule_at_as(TimeNs when, ActorId actor,
                                EventAction action, EventPriority priority) {
  push(when, priority, actor, actor, std::move(action));
}

void EventQueue::schedule_in_as(TimeNs delay, ActorId actor,
                                EventAction action, EventPriority priority) {
  schedule_at_as(now_ + delay, actor, std::move(action), priority);
}

void EventQueue::schedule_handoff(TimeNs when, ActorId exec_actor,
                                  EventAction action, EventPriority priority) {
  push(when, priority, current_exec_actor_, exec_actor, std::move(action));
}

EventKey EventQueue::make_handoff_key(TimeNs when, EventPriority priority) {
  return EventKey{when, priority, current_exec_actor_,
                  next_seq(current_exec_actor_)};
}

void EventQueue::insert_foreign(const EventKey& key, ActorId exec_actor,
                                EventAction action) {
  if (key.when < now_) {
    throw std::logic_error("EventQueue: foreign event in the past");
  }
  if (exec_actor == kRootActor) root_whens_.insert(key.when);
  heap_.push_back(Entry{key, exec_actor, std::move(action)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  // pop_heap moves the earliest entry to the back; move it out from there
  // rather than copying the action (a closure clone per event).
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry entry = std::move(heap_.back());
  heap_.pop_back();
  if (entry.exec_actor == kRootActor) {
    root_whens_.erase(root_whens_.find(entry.key.when));
  }
  now_ = entry.key.when;
  ++executed_;
  executing_ = true;
  current_key_ = entry.key;
  current_exec_actor_ = entry.exec_actor;
  // Reset the execution context even if the action throws (the engine's
  // fail-fast checks do), so later scheduling isn't silently mis-keyed to a
  // stale actor.
  struct ResetContext {
    EventQueue* q;
    ~ResetContext() {
      q->executing_ = false;
      q->current_exec_actor_ = kRootActor;
    }
  } reset{this};
  entry.action();
  return true;
}

std::uint64_t EventQueue::run_until(TimeNs until) {
  return run_window(until, /*inclusive=*/true);
}

std::uint64_t EventQueue::run() {
  std::uint64_t count = 0;
  while (step()) ++count;
  return count;
}

std::uint64_t EventQueue::run_window(TimeNs bound, bool inclusive) {
  std::uint64_t count = 0;
  while (!heap_.empty() && (inclusive ? heap_.front().key.when <= bound
                                      : heap_.front().key.when < bound)) {
    step();
    ++count;
  }
  if (now_ < bound) now_ = bound;
  return count;
}

void EventQueue::clear() {
  heap_.clear();
  root_whens_.clear();
}

void EventQueue::reset() {
  clear();
  seq_.clear();
  now_ = 0;
  executed_ = 0;
  executing_ = false;
  current_exec_actor_ = kRootActor;
  current_key_ = EventKey{};
}

}  // namespace spinn::sim
