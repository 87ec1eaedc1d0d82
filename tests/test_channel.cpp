#include <gtest/gtest.h>

#include "engine/state.hpp"
#include "spp/gadgets.hpp"
#include "support/error.hpp"

// FIFO behaviour of one channel as a view into the packed NetworkState.
namespace commroute::engine {
namespace {

class ChannelTest : public ::testing::Test {
 protected:
  spp::Instance inst = spp::disagree();
  NodeId d = inst.graph().node("d");
  NodeId x = inst.graph().node("x");
  NodeId y = inst.graph().node("y");
  // DISAGREE's five permitted paths, usable as distinct message payloads.
  Path xd = inst.parse_path("xd");
  Path xyd = inst.parse_path("xyd");
  Path yd = inst.parse_path("yd");
  Path yxd = inst.parse_path("yxd");
  ChannelIdx xy = inst.graph().channel(x, y);
};

TEST_F(ChannelTest, FifoOrder) {
  NetworkState s(inst);
  MutableChannelView c = s.mutable_channel(xy);
  c.push(Message{xd, 0});
  c.push(Message{yd, 0});
  c.push(Message{Path::epsilon(), 0});
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.at(0).path, xd);
  EXPECT_EQ(c.at(2).path, Path::epsilon());
  c.pop_front();
  EXPECT_EQ(c.at(0).path, yd);
}

TEST_F(ChannelTest, PopFrontN) {
  NetworkState s(inst);
  MutableChannelView c = s.mutable_channel(xy);
  for (const Path& p : {Path{d}, xd, xyd, yd, yxd}) {
    c.push(Message{p, 0});
  }
  c.pop_front_n(3);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.at(0).path, yd);
  c.pop_front_n(0);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_THROW(c.pop_front_n(3), PreconditionError);
}

TEST_F(ChannelTest, PopEmptyThrows) {
  NetworkState s(inst);
  EXPECT_THROW(s.mutable_channel(xy).pop_front(), PreconditionError);
}

TEST_F(ChannelTest, EqualityIncludesTags) {
  NetworkState a(inst), b(inst);
  a.mutable_channel(xy).push(Message{xd, 0});
  b.mutable_channel(xy).push(Message{xd, 1});
  EXPECT_FALSE(a == b);
  EXPECT_EQ(b.channel(xy).at(0).tag, 1u);
  b.mutable_channel(xy).set_tag(0, 0);
  EXPECT_TRUE(a == b);
}

TEST_F(ChannelTest, HashTracksContents) {
  NetworkState a(inst), b(inst);
  EXPECT_EQ(a.hash(), b.hash());
  a.mutable_channel(xy).push(Message{xd, 0});
  EXPECT_NE(a.hash(), b.hash());
  b.mutable_channel(xy).push(Message{xd, 0});
  EXPECT_EQ(a.hash(), b.hash());
  // The tag is part of the hash too.
  b.mutable_channel(xy).set_tag(0, 9);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Channel, MessageEqualityAndHash) {
  const Message m1{Path{1, 0}, 0};
  const Message m2{Path{1, 0}, 0};
  const Message m3{Path{1, 0}, 9};
  EXPECT_EQ(m1, m2);
  EXPECT_FALSE(m1 == m3);
  EXPECT_EQ(std::hash<Message>{}(m1), std::hash<Message>{}(m2));
  EXPECT_NE(std::hash<Message>{}(m1), std::hash<Message>{}(m3));
}

TEST_F(ChannelTest, WithdrawalIsEmptyPath) {
  NetworkState s(inst);
  s.mutable_channel(xy).push(Message{Path::epsilon(), 0});
  EXPECT_TRUE(s.channel(xy).at(0).path.empty());
  EXPECT_EQ(s.channel(xy).path_id(0), spp::kEpsilonId);
}

TEST_F(ChannelTest, AtOutOfRangeThrowsWithDiagnostic) {
  NetworkState s(inst);
  s.mutable_channel(xy).push(Message{xd, 0});
  const ChannelView c = s.channel(xy);
  EXPECT_NO_THROW(c.at(0));
  try {
    c.at(1);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    // The diagnostic names the index and the size.
    EXPECT_NE(std::string(e.what()).find("1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("size"), std::string::npos);
  }
  EXPECT_THROW(s.mutable_channel(xy).set_tag(1, 0), PreconditionError);
  EXPECT_THROW(NetworkState(inst).channel(xy).at(0), PreconditionError);
  EXPECT_THROW(s.channel(inst.graph().channel_count()), PreconditionError);
}

TEST_F(ChannelTest, PopFrontNBeyondSizeThrowsWithDiagnostic) {
  NetworkState s(inst);
  MutableChannelView c = s.mutable_channel(xy);
  c.push(Message{xd, 0});
  c.push(Message{yd, 0});
  try {
    c.pop_front_n(3);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("2"), std::string::npos);
  }
  EXPECT_EQ(c.size(), 2u);  // failed pop left the channel intact
}

TEST_F(ChannelTest, ChannelsAreIndependent) {
  // Pushes and pops on one channel never disturb its neighbours in the
  // shared buffer.
  NetworkState s(inst);
  const ChannelIdx yx = inst.graph().channel(y, x);
  s.mutable_channel(yx).push(Message{yd, 0});
  s.mutable_channel(xy).push(Message{xd, 7});
  s.mutable_channel(yx).push(Message{yxd, 0});
  s.mutable_channel(xy).push(Message{xyd, 0});
  s.mutable_channel(yx).pop_front();
  EXPECT_EQ(s.channel(xy).at(0), (Message{xd, 7}));
  EXPECT_EQ(s.channel(xy).at(1), (Message{xyd, 0}));
  ASSERT_EQ(s.channel(yx).size(), 1u);
  EXPECT_EQ(s.channel(yx).at(0).path, yxd);
  EXPECT_EQ(s.messages_in_flight(), 3u);
}

}  // namespace
}  // namespace commroute::engine
