#include "simcore/notifier.hpp"

namespace vmig::sim {

Notifier::~Notifier() {
  // Orphan queued waiters: their frames are owned elsewhere (the simulator's
  // root tasks); they must not try to unlink from a dead list.
  for (Awaiter* w = head_; w != nullptr;) {
    Awaiter* next = w->next_;
    w->state_ = Awaiter::State::kOrphaned;
    w->prev_ = w->next_ = nullptr;
    w = next;
  }
  head_ = tail_ = nullptr;
  count_ = 0;
}

Notifier::Awaiter::~Awaiter() {
  switch (state_) {
    case State::kQueued:
      n_->unlink(this);
      break;
    case State::kNotified:
      // Resume already scheduled but the frame is being destroyed first:
      // cancel so the dead handle is never resumed.
      if (sim_) sim_->cancel(timer_);
      break;
    default:
      break;
  }
}

void Notifier::Awaiter::await_suspend(std::coroutine_handle<> h) {
  h_ = h;
  sim_ = n_->sim_;
  n_->enqueue(this);
}

std::size_t Notifier::notify_one() {
  if (head_ == nullptr) return 0;
  Awaiter* w = head_;
  fire(w);
  return 1;
}

std::size_t Notifier::notify_all() {
  std::size_t n = 0;
  while (head_ != nullptr) {
    fire(head_);
    ++n;
  }
  return n;
}

void Notifier::enqueue(Awaiter* w) {
  w->state_ = Awaiter::State::kQueued;
  w->prev_ = tail_;
  w->next_ = nullptr;
  if (tail_ != nullptr) {
    tail_->next_ = w;
  } else {
    head_ = w;
  }
  tail_ = w;
  ++count_;
}

void Notifier::unlink(Awaiter* w) {
  if (w->prev_ != nullptr) {
    w->prev_->next_ = w->next_;
  } else {
    head_ = w->next_;
  }
  if (w->next_ != nullptr) {
    w->next_->prev_ = w->prev_;
  } else {
    tail_ = w->prev_;
  }
  w->prev_ = w->next_ = nullptr;
  --count_;
}

void Notifier::fire(Awaiter* w) {
  unlink(w);
  w->state_ = Awaiter::State::kNotified;
  w->timer_ = sim_->schedule_after(Duration::zero(), [w] {
    if (w->blocked_ != nullptr && w->blocked_(w->ctx_)) {
      w->n_->enqueue(w);
      return;
    }
    w->state_ = Awaiter::State::kResumed;
    w->h_.resume();  // `w` may be destroyed past this point
  });
}

}  // namespace vmig::sim
