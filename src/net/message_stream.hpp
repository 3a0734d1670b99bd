#pragma once

#include <concepts>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "net/link.hpp"
#include "simcore/channel.hpp"
#include "simcore/task.hpp"

namespace vmig::net {

/// A message that knows its size on the wire.
template <typename M>
concept WireMessage = requires(const M& m) {
  { m.wire_bytes() } -> std::convertible_to<std::uint64_t>;
};

/// Reliable, ordered, typed message pipe over a `Link` (a TCP connection, at
/// the level of abstraction migration daemons care about).
///
/// `send` pays the link's serialization + latency cost for the message's
/// wire size, then delivers the message into the receiver's inbox. Multiple
/// concurrent senders serialize FIFO on the underlying link.
///
/// `send` and `recv` return awaiters: a message costs one delivery timer and
/// no coroutine frame. Await them where they are made. Only a send through
/// a rate-limiting TokenBucket, which may have to wait before the wire,
/// runs as a coroutine.
template <WireMessage M>
class MessageStream {
  // See sim::Channel: GCC 12 double-destroys elided aggregate coroutine
  // arguments; message types must not be aggregates with non-trivial members.
  // The shaped send takes M by value.
  static_assert(std::is_trivially_destructible_v<M> || !std::is_aggregate_v<M>,
                "give M a user-declared constructor (GCC 12 coroutine "
                "parameter double-destruction workaround)");

 public:
  /// Awaiter of `send`. Awaiting checks the stream is open and runs the send
  /// observer; suspending reserves the link and arms the delivery timer,
  /// whose handler delivers (or loses) the message and resumes the caller.
  /// Resumes with false if the stream was closed. Destroying the awaiting
  /// frame before delivery cancels the timer.
  ///
  /// The awaiter refers to the caller's message, which a `co_await` of the
  /// call keeps alive in the caller's frame until it resumes: the message
  /// costs the frame no second copy. Await it in the expression that makes
  /// it.
  class [[nodiscard]] SendAwaiter {
   public:
    SendAwaiter(MessageStream& s, M& msg, TokenBucket* shaper)
        : s_{&s}, msg_{&msg}, shaper_{shaper} {}
    SendAwaiter(const SendAwaiter&) = delete;
    SendAwaiter& operator=(const SendAwaiter&) = delete;
    ~SendAwaiter() {
      if (timer_ != 0) s_->sim_.cancel(timer_);
    }

    bool await_ready() {
      if (s_->inbox_.closed()) return true;
      if (s_->send_observer_) s_->send_observer_(*msg_);
      if (shaper_ != nullptr && !shaper_->unlimited()) {
        shaped_ = s_->shaped_send(std::move(*msg_), shaper_);
      }
      return false;
    }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      if (shaped_.valid()) {
        return std::move(shaped_).operator co_await().await_suspend(h);
      }
      timer_ = s_->sim_.schedule_at(s_->link_.reserve(msg_->wire_bytes()),
                                    [this, h] {
                                      timer_ = 0;
                                      ok_ = s_->deliver(std::move(*msg_));
                                      h.resume();  // `this` may die here
                                    });
      return std::noop_coroutine();
    }
    bool await_resume() {
      if (shaped_.valid()) {
        return std::move(shaped_).operator co_await().await_resume();
      }
      return ok_;
    }

   private:
    MessageStream* s_;
    M* msg_;
    TokenBucket* shaper_;
    sim::Task<bool> shaped_;  ///< the send through a rate-limiting shaper
    sim::Simulator::TimerId timer_ = 0;  ///< armed and not yet fired
    bool ok_ = false;
  };

  MessageStream(sim::Simulator& sim, Link& link)
      : sim_{sim}, link_{link}, inbox_{sim} {}

  MessageStream(const MessageStream&) = delete;
  MessageStream& operator=(const MessageStream&) = delete;

  /// Observe every message offered to the wire (before transmission); the
  /// migration engine uses this for per-message-type byte accounting. Null
  /// (the default) costs one branch per send.
  void set_send_observer(std::function<void(const M&)> fn) {
    send_observer_ = std::move(fn);
  }

  /// Opt selected messages into the link's loss model: when the link is
  /// lossy and the policy returns true for a message, one seeded loss roll
  /// decides whether it vanishes after paying its wire cost. Messages the
  /// policy rejects (and all messages under a null policy) stay reliable —
  /// the stream is TCP unless a protocol explicitly marks datagram-like
  /// traffic (the TPM marks only post-copy data and pull requests).
  void set_drop_policy(std::function<bool(const M&)> fn) {
    drop_policy_ = std::move(fn);
  }

  /// Transmit and deliver. Resumes with false if the stream was closed.
  /// Pass a temporary or a moved-from local; it is moved into the inbox on
  /// delivery.
  SendAwaiter send(M&& msg, TokenBucket* shaper = nullptr) {
    return SendAwaiter{*this, msg, shaper};
  }

  /// Receive the next message (nullopt once closed and drained).
  typename sim::Channel<M>::RecvAwaiter recv() { return inbox_.recv(); }

  std::optional<M> try_recv() { return inbox_.try_recv(); }

  void close() { inbox_.close(); }
  bool closed() const noexcept { return inbox_.closed(); }
  std::size_t pending() const noexcept { return inbox_.size(); }
  std::uint64_t delivered() const noexcept { return delivered_; }
  /// Messages lost to the link's injected loss model.
  std::uint64_t dropped() const noexcept { return dropped_; }
  Link& link() noexcept { return link_; }
  const Link& link() const noexcept { return link_; }

 private:
  /// The far end of the wire: closed check, then the drop policy's loss
  /// roll or delivery into the inbox.
  bool deliver(M&& msg) {
    if (inbox_.closed()) return false;
    if (link_.lossy() && drop_policy_ && drop_policy_(msg) &&
        link_.roll_drop()) {
      // Lost on the wire; the sender cannot tell (a datagram send returns
      // success). Recovery is the receiver's job (timeouts + re-pull).
      ++dropped_;
      return true;
    }
    ++delivered_;
    inbox_.try_send(std::move(msg));
    return true;
  }

  sim::Task<bool> shaped_send(M msg, TokenBucket* shaper) {
    co_await link_.transmit(msg.wire_bytes(), shaper);
    co_return deliver(std::move(msg));
  }

  sim::Simulator& sim_;
  Link& link_;
  sim::Channel<M> inbox_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::function<void(const M&)> send_observer_;
  std::function<bool(const M&)> drop_policy_;
};

}  // namespace vmig::net
