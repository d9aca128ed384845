#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <typeinfo>
#include <utility>

namespace rtdb::net {

// Dense integer naming a message type. Tags are handed out on first use
// (1, 2, 3, ...) and index the MessageServer's handler table; 0 means "no
// payload". A tag is stable for the life of the process but not across
// processes, so it must never reach an artifact.
using MsgTag = std::uint32_t;

// Thrown by Payload::get<T>() when the payload holds another type, or none.
class BadPayloadAccess : public std::bad_cast {
 public:
  const char* what() const noexcept override {
    return "net::Payload holds another message type";
  }
};

namespace detail {

inline constexpr std::size_t kPayloadInlineSize = 48;
inline constexpr std::size_t kPayloadInlineAlign = alignof(void*);

template <typename T>
inline constexpr bool kPayloadInline =
    sizeof(T) <= kPayloadInlineSize && alignof(T) <= kPayloadInlineAlign &&
    std::is_nothrow_move_constructible_v<T>;

// The T held in a Payload's storage: in place, or behind one box pointer.
template <typename T>
T* payload_value(void* storage) noexcept {
  if constexpr (kPayloadInline<T>) {
    return std::launder(static_cast<T*>(storage));
  } else {
    return *std::launder(static_cast<T**>(storage));
  }
}

// The next unused tag. An atomic counter: Systems are built on the sweep
// engine's worker threads, so several threads may name new types at once.
MsgTag next_msg_tag() noexcept;

// What a Payload needs to know about the type it holds: one per type,
// built on first use.
struct PayloadOps {
  MsgTag tag = 0;
  bool on_heap = false;
  // Copy-constructs the value in `src` storage into empty `dst` storage.
  void (*copy)(const void* src, void* dst) = nullptr;
  // Moves the value in `src` storage into empty `dst` storage and destroys
  // the source; null when a byte copy of the storage does the same
  // (trivially copyable values, and heap boxes, which are one pointer).
  void (*relocate)(void* src, void* dst) noexcept = nullptr;
  // Destroys the value in `storage`; null when there is nothing to do.
  void (*destroy)(void* storage) noexcept = nullptr;
};

template <typename T>
const PayloadOps& payload_ops() {
  static const PayloadOps ops = [] {
    PayloadOps o;
    o.tag = next_msg_tag();
    o.on_heap = !kPayloadInline<T>;
    if constexpr (kPayloadInline<T>) {
      o.copy = [](const void* src, void* dst) {
        ::new (dst) T(*payload_value<T>(const_cast<void*>(src)));
      };
      if constexpr (!std::is_trivially_copyable_v<T>) {
        o.relocate = [](void* src, void* dst) noexcept {
          T* from = payload_value<T>(src);
          ::new (dst) T(std::move(*from));
          from->~T();
        };
      }
      if constexpr (!std::is_trivially_destructible_v<T>) {
        o.destroy = [](void* storage) noexcept {
          payload_value<T>(storage)->~T();
        };
      }
    } else {
      o.copy = [](const void* src, void* dst) {
        ::new (dst) T*(new T(*payload_value<T>(const_cast<void*>(src))));
      };
      o.destroy = [](void* storage) noexcept {
        delete payload_value<T>(storage);
      };
    }
    return o;
  }();
  return ops;
}

}  // namespace detail

// The tag of message type T; the first call assigns it.
template <typename T>
MsgTag msg_tag() {
  return detail::payload_ops<T>().tag;
}

// One message body of any copyable type, identified by a dense integer tag
// instead of RTTI. Values of up to kInlineSize bytes live in the object
// itself, so the hot control messages (heartbeats, releases, acquire
// requests, batch frames, replica updates) never touch the heap; bigger
// values go in one heap box. Copying copies the value (the ReliableChannel
// keeps one for retransmission); moving leaves the source empty.
class Payload {
 public:
  static constexpr std::size_t kInlineSize = detail::kPayloadInlineSize;
  static constexpr std::size_t kInlineAlign = detail::kPayloadInlineAlign;

  Payload() noexcept = default;

  // Implicit, so a message converts wherever a Payload is expected:
  // `respond(AcquireResp{...})`, `rpc.call(to, AcquireReq{...})`.
  template <typename T, typename D = std::decay_t<T>,
            typename = std::enable_if_t<!std::is_same_v<D, Payload>>>
  Payload(T&& value) {  // NOLINT(google-explicit-constructor)
    static_assert(std::is_copy_constructible_v<D>,
                  "message types must be copyable");
    if constexpr (detail::kPayloadInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<T>(value));
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<T>(value)));
    }
    ops_ = &detail::payload_ops<D>();
  }

  Payload(const Payload& other) {
    if (other.ops_ == nullptr) return;
    other.ops_->copy(other.storage_, storage_);
    ops_ = other.ops_;
  }
  Payload(Payload&& other) noexcept { steal(other); }
  Payload& operator=(const Payload& other) {
    if (this != &other) {
      Payload copy(other);
      reset();
      steal(copy);
    }
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  ~Payload() { reset(); }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  bool has_value() const noexcept { return ops_ != nullptr; }
  MsgTag tag() const noexcept { return ops_ == nullptr ? 0 : ops_->tag; }
  // False when the value sits in a heap box (or there is none).
  bool stored_inline() const noexcept {
    return ops_ != nullptr && !ops_->on_heap;
  }

  template <typename T>
  bool holds() const {
    return ops_ == &detail::payload_ops<T>();
  }

  // The held value; throws BadPayloadAccess unless it is a T.
  template <typename T>
  T& get() {
    if (!holds<T>()) throw BadPayloadAccess{};
    return *detail::payload_value<T>(storage_);
  }
  template <typename T>
  const T& get() const {
    if (!holds<T>()) throw BadPayloadAccess{};
    return *detail::payload_value<T>(const_cast<unsigned char*>(storage_));
  }

 private:
  void steal(Payload& other) noexcept {
    if (other.ops_ == nullptr) return;
    if (other.ops_->relocate == nullptr) {
      std::memcpy(storage_, other.storage_, kInlineSize);
    } else {
      other.ops_->relocate(other.storage_, storage_);
    }
    ops_ = std::exchange(other.ops_, nullptr);
  }

  // Zeroed, so moving a value smaller than the buffer copies no
  // indeterminate bytes.
  alignas(kInlineAlign) unsigned char storage_[kInlineSize] = {};
  const detail::PayloadOps* ops_ = nullptr;
};

}  // namespace rtdb::net
