#include "engine/state.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"

namespace commroute::engine {

// ---- ChannelView ------------------------------------------------------------

std::size_t ChannelView::size() const {
  state_->require_channel(channel_);
  return state_->words_[state_->length_at(channel_)];
}

std::size_t ChannelView::word_of(std::size_t i, const char* what) const {
  const std::size_t n = size();
  CR_REQUIRE(i < n, std::string(what) + " index " + std::to_string(i) +
                        " out of range (size " + std::to_string(n) + ")");
  return state_->messages_at(channel_) + i * NetworkState::kMessageWords;
}

Message ChannelView::at(std::size_t i) const {
  const std::size_t w = word_of(i, "Channel::at");
  const std::vector<std::uint32_t>& words = state_->words_;
  return Message{state_->instance().path(words[w]),
                 words[w + 1] |
                     (static_cast<std::uint64_t>(words[w + 2]) << 32)};
}

PathId ChannelView::path_id(std::size_t i) const {
  return state_->words_[word_of(i, "Channel::path_id")];
}

// ---- MutableChannelView -----------------------------------------------------

void MutableChannelView::push(const Message& m) {
  push_id(owner_->instance().path_id(m.path), m.tag);
}

void MutableChannelView::push_id(PathId id, std::uint64_t tag) {
  owner_->require_channel(channel_);
  owner_->require_id(id);
  std::vector<std::uint32_t>& words = owner_->words_;
  std::uint32_t& length = words[owner_->length_at(channel_)];
  const std::size_t end = owner_->messages_at(channel_) +
                          length * NetworkState::kMessageWords;
  const std::uint32_t message[NetworkState::kMessageWords] = {
      id, static_cast<std::uint32_t>(tag),
      static_cast<std::uint32_t>(tag >> 32)};
  ++length;  // before insert: the insert may reallocate `words`
  words.insert(words.begin() + static_cast<std::ptrdiff_t>(end),
               std::begin(message), std::end(message));
}

void MutableChannelView::pop_front() {
  CR_REQUIRE(!empty(), "pop_front on empty channel");
  erase_front(1);
}

void MutableChannelView::pop_front_n(std::size_t n) {
  CR_REQUIRE(n <= size(), "Channel::pop_front_n(" + std::to_string(n) +
                              ") beyond channel size " +
                              std::to_string(size()));
  erase_front(n);
}

void MutableChannelView::erase_front(std::size_t n) {
  if (n == 0) {
    return;
  }
  std::vector<std::uint32_t>& words = owner_->words_;
  words[owner_->length_at(channel_)] -= static_cast<std::uint32_t>(n);
  const auto first = words.begin() + static_cast<std::ptrdiff_t>(
                                         owner_->messages_at(channel_));
  words.erase(first, first + static_cast<std::ptrdiff_t>(
                                 n * NetworkState::kMessageWords));
}

void MutableChannelView::set_tag(std::size_t i, std::uint64_t tag) {
  const std::size_t w = word_of(i, "Channel::set_tag");
  owner_->words_[w + 1] = static_cast<std::uint32_t>(tag);
  owner_->words_[w + 2] = static_cast<std::uint32_t>(tag >> 32);
}

// ---- NetworkState -----------------------------------------------------------

NetworkState::NetworkState(const spp::Instance& instance)
    : instance_(&instance), words_(header_words(), spp::kEpsilonId) {
  std::fill(words_.begin() + static_cast<std::ptrdiff_t>(exported_at(0)),
            words_.begin() + static_cast<std::ptrdiff_t>(length_at(0)),
            kNothingExported);
  words_[instance.destination()] = instance.destination_path_id();
}

void NetworkState::require_node(NodeId v) const {
  CR_REQUIRE(v < nodes(), "node out of range");
}

void NetworkState::require_channel(ChannelIdx c) const {
  CR_REQUIRE(c < channels(), "channel out of range");
}

void NetworkState::require_id(PathId id) const {
  CR_REQUIRE(id < instance_->path_id_count(), "path id out of range");
}

std::size_t NetworkState::messages_at(ChannelIdx c) const {
  std::size_t at = header_words();
  for (ChannelIdx k = 0; k < c; ++k) {
    at += words_[length_at(k)] * kMessageWords;
  }
  return at;
}

PathId NetworkState::assignment_id(NodeId v) const {
  require_node(v);
  return words_[v];
}

PathId NetworkState::known_id(ChannelIdx c) const {
  require_channel(c);
  return words_[rho_at(c)];
}

PathId NetworkState::exported_id(ChannelIdx c) const {
  require_channel(c);
  return words_[exported_at(c)];
}

const Path& NetworkState::assignment(NodeId v) const {
  return instance_->path(assignment_id(v));
}

std::vector<Path> NetworkState::assignments() const {
  std::vector<Path> out;
  out.reserve(nodes());
  for (NodeId v = 0; v < nodes(); ++v) {
    out.push_back(instance_->path(words_[v]));
  }
  return out;
}

const Path& NetworkState::known(ChannelIdx c) const {
  return instance_->path(known_id(c));
}

ChannelView NetworkState::channel(ChannelIdx c) const {
  require_channel(c);
  return ChannelView(*this, c);
}

std::optional<Path> NetworkState::last_exported(ChannelIdx c) const {
  const PathId id = exported_id(c);
  if (id == kNothingExported) {
    return std::nullopt;
  }
  return instance_->path(id);
}

std::size_t NetworkState::max_channel_length() const {
  std::size_t longest = 0;
  for (ChannelIdx c = 0; c < channels(); ++c) {
    longest = std::max<std::size_t>(longest, words_[length_at(c)]);
  }
  return longest;
}

NetworkState::ChannelUsage NetworkState::channel_usage() const {
  ChannelUsage usage;
  usage.max_length = max_channel_length();
  for (std::size_t w = header_words(); w < words_.size(); w += kMessageWords) {
    usage.bytes +=
        sizeof(Message) + instance_->path(words_[w]).size() * sizeof(NodeId);
  }
  return usage;
}

std::size_t NetworkState::hash() const {
  // One multiply-xorshift pass over the buffer, eight bytes at a time.
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = 0x51afd7ed558ccd6dULL ^ words_.size();
  const std::uint32_t* w = words_.data();
  const std::size_t n = words_.size();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    h = (h ^ (w[i] | (static_cast<std::uint64_t>(w[i + 1]) << 32))) * kMul;
    h ^= h >> 32;
  }
  if (i < n) {
    h = (h ^ w[i]) * kMul;
    h ^= h >> 32;
  }
  return static_cast<std::size_t>(h);
}

std::string NetworkState::to_string() const {
  const spp::Instance& inst = *instance_;
  const Graph& g = inst.graph();
  std::ostringstream os;
  os << "pi:";
  for (NodeId v = 0; v < nodes(); ++v) {
    os << " " << g.name(v) << "=" << inst.path_name(assignment(v));
  }
  os << "\nchannels:";
  bool any = false;
  for (ChannelIdx c = 0; c < channels(); ++c) {
    const ChannelView ch = channel(c);
    if (ch.empty()) {
      continue;
    }
    any = true;
    os << " " << g.channel_name(c) << "=[";
    for (std::size_t i = 0; i < ch.size(); ++i) {
      os << (i ? "," : "") << inst.path_name(inst.path(ch.path_id(i)));
    }
    os << "]";
  }
  if (!any) {
    os << " (all empty)";
  }
  os << "\nrho:";
  for (ChannelIdx c = 0; c < channels(); ++c) {
    if (known_id(c) != spp::kEpsilonId) {
      os << " " << g.channel_name(c) << "=" << inst.path_name(known(c));
    }
  }
  os << "\n";
  return os.str();
}

void NetworkState::set_assignment(NodeId v, const Path& p) {
  set_assignment_id(v, instance_->path_id(p));
}

void NetworkState::set_known(ChannelIdx c, const Path& p) {
  set_known_id(c, instance_->path_id(p));
}

MutableChannelView NetworkState::mutable_channel(ChannelIdx c) {
  require_channel(c);
  return MutableChannelView(*this, c);
}

void NetworkState::set_last_exported(ChannelIdx c, const Path& p) {
  set_exported_id(c, instance_->path_id(p));
}

void NetworkState::reset_last_exported(ChannelIdx c) {
  require_channel(c);
  words_[exported_at(c)] = kNothingExported;
}

void NetworkState::set_assignment_id(NodeId v, PathId id) {
  require_node(v);
  require_id(id);
  words_[v] = id;
}

void NetworkState::set_known_id(ChannelIdx c, PathId id) {
  require_channel(c);
  require_id(id);
  words_[rho_at(c)] = id;
}

void NetworkState::set_exported_id(ChannelIdx c, PathId id) {
  require_channel(c);
  require_id(id);
  words_[exported_at(c)] = id;
}

}  // namespace commroute::engine
