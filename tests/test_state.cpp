#include <gtest/gtest.h>

#include <vector>

#include "engine/executor.hpp"
#include "engine/scheduler.hpp"
#include "engine/state.hpp"
#include "spp/gadgets.hpp"
#include "spp/random_gen.hpp"
#include "support/error.hpp"

namespace commroute::engine {
namespace {

class StateTest : public ::testing::Test {
 protected:
  spp::Instance inst = spp::disagree();
  NodeId d = inst.graph().node("d");
  NodeId x = inst.graph().node("x");
  NodeId y = inst.graph().node("y");
  Path xd = inst.parse_path("xd");
  Path yd = inst.parse_path("yd");
  ChannelIdx xy = inst.graph().channel(x, y);
};

TEST_F(StateTest, InitialStateMatchesDefinition21) {
  const NetworkState s(inst);
  // pi_d(0) = (d); everything else epsilon.
  EXPECT_EQ(s.assignment(d), Path{d});
  EXPECT_TRUE(s.assignment(x).empty());
  EXPECT_TRUE(s.assignment(y).empty());
  // rho(c; 0) = epsilon; channels empty; nothing exported.
  for (ChannelIdx c = 0; c < inst.graph().channel_count(); ++c) {
    EXPECT_TRUE(s.known(c).empty());
    EXPECT_TRUE(s.channel(c).empty());
    EXPECT_FALSE(s.last_exported(c).has_value());
  }
  EXPECT_TRUE(s.quiescent());
  EXPECT_EQ(s.messages_in_flight(), 0u);
  EXPECT_EQ(s.max_channel_length(), 0u);
}

TEST_F(StateTest, EqualityAndHashCoverAllComponents) {
  NetworkState a(inst), b(inst);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.hash(), b.hash());

  b.set_assignment(x, xd);
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.hash(), b.hash());

  b = NetworkState(inst);
  b.set_known(0, xd);
  EXPECT_FALSE(a == b);

  b = NetworkState(inst);
  b.mutable_channel(0).push(Message{xd, 0});
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.hash(), b.hash());

  b = NetworkState(inst);
  b.set_last_exported(0, Path::epsilon());
  EXPECT_FALSE(a == b);
}

TEST_F(StateTest, QuiescenceTracksChannels) {
  NetworkState s(inst);
  s.mutable_channel(2).push(Message{xd, 0});
  EXPECT_FALSE(s.quiescent());
  EXPECT_EQ(s.messages_in_flight(), 1u);
  EXPECT_EQ(s.max_channel_length(), 1u);
  s.mutable_channel(2).pop_front();
  EXPECT_TRUE(s.quiescent());
}

TEST_F(StateTest, CopySemantics) {
  NetworkState a(inst);
  a.mutable_channel(1).push(Message{yd, 0});
  NetworkState b = a;
  EXPECT_TRUE(a == b);
  b.mutable_channel(1).pop_front();
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a.channel(1).size(), 1u);  // deep copy
}

TEST_F(StateTest, ToStringShowsAssignmentsAndChannels) {
  NetworkState s(inst);
  s.set_assignment(x, xd);
  s.mutable_channel(xy).push(Message{xd, 0});
  const std::string out = s.to_string();
  EXPECT_NE(out.find("x=xd"), std::string::npos);
  EXPECT_NE(out.find("x->y"), std::string::npos);
}

// ---- Path table -----------------------------------------------------------

void expect_round_trip(const spp::Instance& inst, const std::string& name) {
  EXPECT_EQ(inst.find_path_id(Path::epsilon()), spp::kEpsilonId) << name;
  EXPECT_TRUE(inst.path(spp::kEpsilonId).empty()) << name;
  std::size_t permitted = 0;
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    for (const Path& p : inst.permitted(v)) {
      const spp::PathId id = inst.path_id(p);
      EXPECT_NE(id, spp::kEpsilonId) << name << " " << inst.path_name(p);
      EXPECT_EQ(inst.path(id), p) << name << " " << inst.path_name(p);
      ++permitted;
    }
  }
  EXPECT_EQ(inst.path_id_count(), permitted + 1) << name;
}

TEST(PathTable, RoundTripsEveryPermittedPath) {
  for (const spp::NamedInstance& g : spp::all_gadgets()) {
    expect_round_trip(g.instance, g.name);
  }
  Rng rng(11);
  expect_round_trip(spp::random_shortest(rng, {.nodes = 8}),
                    "random_shortest");
}

TEST(PathTable, ExtensionFollowsPermittedPaths) {
  const spp::Instance inst = spp::disagree();
  const NodeId x = inst.graph().node("x");
  const NodeId y = inst.graph().node("y");
  const spp::PathId yd = inst.path_id(inst.parse_path("yd"));
  EXPECT_EQ(inst.path(inst.extension(yd, x)), inst.parse_path("xyd"));
  EXPECT_EQ(inst.path(inst.extension(inst.destination_path_id(), x)),
            inst.parse_path("xd"));
  // Through x itself, or from epsilon, there is no extension.
  EXPECT_EQ(inst.extension(inst.path_id(inst.parse_path("xyd")), y),
            spp::kEpsilonId);
  EXPECT_EQ(inst.extension(spp::kEpsilonId, x), spp::kEpsilonId);
  EXPECT_THROW(inst.extension(
                   static_cast<spp::PathId>(inst.path_id_count()), x),
               PreconditionError);
}

TEST_F(StateTest, NonPermittedPathsAreRejected) {
  NetworkState s(inst);
  const Path loop{x, y, x, d};
  const Path unknown{y, x};  // does not end at d
  for (const Path& bad : {loop, unknown, Path{x}}) {
    EXPECT_FALSE(inst.find_path_id(bad).has_value());
    EXPECT_THROW(s.set_assignment(x, bad), PreconditionError);
    EXPECT_THROW(s.set_known(xy, bad), PreconditionError);
    EXPECT_THROW(s.set_last_exported(xy, bad), PreconditionError);
    EXPECT_THROW(s.mutable_channel(xy).push(Message{bad, 0}),
                 PreconditionError);
  }
  EXPECT_TRUE(s == NetworkState(inst));  // failed mutators changed nothing
}

// ---- Packed equality agrees with Path-level equality ----------------------

/// Every Def. 2.1 component at Path level.
struct PathLevel {
  std::vector<Path> pi;
  std::vector<Path> rho;
  std::vector<std::vector<Message>> channels;
  std::vector<std::optional<Path>> exported;

  explicit PathLevel(const NetworkState& s) : pi(s.assignments()) {
    for (ChannelIdx c = 0; c < s.instance().graph().channel_count(); ++c) {
      rho.push_back(s.known(c));
      exported.push_back(s.last_exported(c));
      channels.emplace_back();
      const ChannelView view = s.channel(c);
      for (std::size_t i = 0; i < view.size(); ++i) {
        channels.back().push_back(view.at(i));
      }
    }
  }

  bool operator==(const PathLevel& o) const {
    return pi == o.pi && rho == o.rho && channels == o.channels &&
           exported == o.exported;
  }
};

TEST(PackedState, EqualityMatchesPathLevelEqualityOverRandomSteps) {
  const spp::Instance inst = spp::bad_gadget();
  const model::Model m = model::Model::parse("UMS");
  RandomFairScheduler sched(m, inst, Rng(42),
                            {.drop_prob = 0.3, .sweep_period = 16});
  NetworkState state(inst);
  std::vector<NetworkState> states{state};
  for (int i = 0; i < 1000; ++i) {
    execute_step(state, sched.next(state));
    states.push_back(state);
  }
  std::vector<PathLevel> levels;
  for (const NetworkState& s : states) {
    levels.emplace_back(s);
  }
  std::size_t equal_pairs = 0;
  for (std::size_t i = 0; i < states.size(); ++i) {
    for (std::size_t j = i + 1; j < states.size(); ++j) {
      const bool packed_equal =
          states[i] == states[j] && states[i].hash() == states[j].hash();
      ASSERT_EQ(packed_equal, levels[i] == levels[j]) << i << " vs " << j;
      equal_pairs += packed_equal ? 1 : 0;
    }
  }
  EXPECT_GT(equal_pairs, 0u);  // the run revisits states
}

TEST_F(StateTest, EstimatedBytesIsObjectPlusBuffer) {
  NetworkState s(inst);
  const std::size_t channels = inst.graph().channel_count();
  const std::size_t header = inst.node_count() + 3 * channels;
  EXPECT_EQ(s.estimated_bytes(), sizeof(NetworkState) + 4 * header);
  s.mutable_channel(xy).push(Message{xd, 0});
  s.mutable_channel(xy).push(Message{Path::epsilon(), 0});
  EXPECT_EQ(s.estimated_bytes(), sizeof(NetworkState) + 4 * (header + 6));
  const NetworkState copy = s;
  EXPECT_EQ(copy.estimated_bytes(), s.estimated_bytes());
}

}  // namespace
}  // namespace commroute::engine
