// Full network state (Def. 2.1 of the paper).
//
// Tracks, per step of an execution:
//   * pi_v  — each node's current path assignment,
//   * rho_v(c) — the payload of the last update successfully processed
//     from each channel (stored as the *announced* path; the receiving
//     node extends it by itself at selection time),
//   * channel contents (FIFO; index 0 is the oldest message, Sec. 2.1),
//   * last value exported per channel (realizing the "announce only on
//     change" rule of Def. 2.3 step 4, including d's first announcement).
//
// Representation: every value above is epsilon or a path permitted at its
// source, so the state is the instance pointer plus one flat buffer of
// 32-bit words holding spp::PathIds (see spp::Instance's path table):
//
//   pi[n] | rho[c] | exported[c] | length[c] | messages
//
// where n = nodes and c = channels, exported uses kNothingExported for
// "nothing sent yet", and the messages of channel 0, 1, ... follow back to
// back, three words each (path id, tag low, tag high). The layout is
// canonical — equal states have equal buffers — so copy is one
// allocation plus a memcpy, equality a memcmp and hash() one pass.
//
// NetworkState is a value type: copyable, hashable, equality-comparable,
// which is what the model checker enumerates.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "spp/instance.hpp"
#include "support/hash.hpp"

namespace commroute::engine {

using spp::PathId;

/// One update message: the announced path (epsilon = withdrawal) plus an
/// engine-invisible tag. Tags never influence protocol semantics; the
/// realization transforms use them for bookkeeping (e.g. the "flagged"
/// messages in the proof of Prop. 3.6).
struct Message {
  Path path;
  std::uint64_t tag = 0;

  bool operator==(const Message& o) const {
    return path == o.path && tag == o.tag;
  }
};

class NetworkState;

/// Read-only view of one channel's FIFO inside a NetworkState. Valid
/// while the state lives; reads always see the state's current contents.
class ChannelView {
 public:
  ChannelView(const NetworkState& state, ChannelIdx c)
      : state_(&state), channel_(c) {}

  bool empty() const { return size() == 0; }
  std::size_t size() const;

  /// i-th oldest message, 0-based. Requires i < size(); violations
  /// throw PreconditionError with a diagnostic (scheduler/sim bugs fail
  /// loudly instead of surfacing as std::out_of_range deep in a run).
  Message at(std::size_t i) const;

  /// The i-th oldest message's path id. Same precondition as at().
  PathId path_id(std::size_t i) const;

 protected:
  /// Buffer index of message i's first word, after the range check.
  std::size_t word_of(std::size_t i, const char* what) const;

  const NetworkState* state_;
  ChannelIdx channel_;
};

/// Mutable view of one channel: the sender appends, the receiver removes
/// from the front.
class MutableChannelView : public ChannelView {
 public:
  MutableChannelView(NetworkState& state, ChannelIdx c)
      : ChannelView(state, c), owner_(&state) {}

  /// Appends `m`. Its path must be epsilon or permitted at its source
  /// (PreconditionError otherwise).
  void push(const Message& m);
  void push_id(PathId id, std::uint64_t tag = 0);

  /// Removes the oldest message. Requires a non-empty channel.
  void pop_front();

  /// Removes the `n` oldest messages. Requires n <= size(); violations
  /// throw PreconditionError.
  void pop_front_n(std::size_t n);

  /// Sets the i-th oldest message's tag. Same precondition as at().
  void set_tag(std::size_t i, std::uint64_t tag);

 private:
  void erase_front(std::size_t n);

  NetworkState* owner_;
};

class NetworkState {
 public:
  /// last_exported value meaning "nothing sent yet" (distinct from
  /// epsilon, which is a sent withdrawal).
  static constexpr PathId kNothingExported = static_cast<PathId>(-1);

  /// Initial state: pi_d = (d), all other pi = epsilon, all rho = epsilon,
  /// all channels empty, nothing exported yet.
  explicit NetworkState(const spp::Instance& instance);

  const spp::Instance& instance() const { return *instance_; }

  /// pi_v: v's current path assignment.
  const Path& assignment(NodeId v) const;

  /// The full assignment vector (a copy).
  std::vector<Path> assignments() const;

  /// rho_v(c): announced path last processed from channel c (epsilon if
  /// none yet, or if the last update was a withdrawal).
  const Path& known(ChannelIdx c) const;

  ChannelView channel(ChannelIdx c) const;

  /// What the sender last wrote to channel c (nullopt = nothing yet).
  std::optional<Path> last_exported(ChannelIdx c) const;

  /// Id-level accessors (the executor's hot path; same ranges as the
  /// Path-level ones). exported_id returns kNothingExported for "nothing
  /// sent yet".
  PathId assignment_id(NodeId v) const;
  PathId known_id(ChannelIdx c) const;
  PathId exported_id(ChannelIdx c) const;

  /// All channels empty: no execution step can change any assignment, so
  /// the run has converged to assignments().
  bool quiescent() const { return words_.size() == header_words(); }

  /// Total messages currently in flight.
  std::size_t messages_in_flight() const {
    return (words_.size() - header_words()) / kMessageWords;
  }

  /// Length of the longest channel.
  std::size_t max_channel_length() const;

  /// Channel occupancy (longest channel) and in-flight message bytes,
  /// computed in one pass — the engine samples both every step. Bytes are
  /// Σ(sizeof(Message) + |path| · sizeof(NodeId)) over the messages.
  struct ChannelUsage {
    std::size_t max_length = 0;
    std::size_t bytes = 0;
  };
  ChannelUsage channel_usage() const;

  /// Exact footprint of this state: the object plus its buffer. Feeds the
  /// checker's tracked-bytes accounting (obs::TrackedBytes).
  std::size_t estimated_bytes() const {
    return sizeof(NetworkState) + words_.size() * sizeof(std::uint32_t);
  }

  bool operator==(const NetworkState& o) const { return words_ == o.words_; }
  std::size_t hash() const;

  /// Multi-line debug rendering.
  std::string to_string() const;

  // -- Mutators (used by the executor; exposed for tests) ------------------
  //
  // Path-level mutators require epsilon or a path permitted at its source
  // and throw PreconditionError otherwise.

  void set_assignment(NodeId v, const Path& p);
  void set_known(ChannelIdx c, const Path& p);
  MutableChannelView mutable_channel(ChannelIdx c);
  void set_last_exported(ChannelIdx c, const Path& p);
  /// Forgets what was exported on c (back to "nothing sent yet") — a
  /// session reset: the sender will re-announce its current assignment
  /// on its next activation (scenario::apply_fault).
  void reset_last_exported(ChannelIdx c);

  void set_assignment_id(NodeId v, PathId id);
  void set_known_id(ChannelIdx c, PathId id);
  void set_exported_id(ChannelIdx c, PathId id);

 private:
  friend class ChannelView;
  friend class MutableChannelView;

  /// Words per queued message: path id, tag low, tag high.
  static constexpr std::size_t kMessageWords = 3;

  std::size_t nodes() const { return instance_->node_count(); }
  std::size_t channels() const {
    return instance_->graph().channel_count();
  }
  std::size_t rho_at(ChannelIdx c) const { return nodes() + c; }
  std::size_t exported_at(ChannelIdx c) const {
    return nodes() + channels() + c;
  }
  std::size_t length_at(ChannelIdx c) const {
    return nodes() + 2 * channels() + c;
  }
  std::size_t header_words() const { return nodes() + 3 * channels(); }
  /// Buffer index of channel c's oldest message.
  std::size_t messages_at(ChannelIdx c) const;
  void require_node(NodeId v) const;
  void require_channel(ChannelIdx c) const;
  void require_id(PathId id) const;

  const spp::Instance* instance_;
  std::vector<std::uint32_t> words_;
};

}  // namespace commroute::engine

namespace std {
template <>
struct hash<commroute::engine::Message> {
  std::size_t operator()(const commroute::engine::Message& m) const {
    std::size_t seed = std::hash<commroute::Path>{}(m.path);
    commroute::hash_combine_value(seed, m.tag);
    return seed;
  }
};

template <>
struct hash<commroute::engine::NetworkState> {
  std::size_t operator()(const commroute::engine::NetworkState& s) const {
    return s.hash();
  }
};
}  // namespace std
