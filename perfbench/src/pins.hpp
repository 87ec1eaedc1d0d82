// Pinned answers. The capped exploration does not depend on the workload
// seed. The break-search edit sets and the campaign CSVs do, so those are
// pinned for workload seeds 0-15. A seed outside that range is still
// checked against answers computed in the same run: the search's first
// tiebreak:3 attempt, and the same campaigns run at width 1.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

/// checker::explore of BAD-GADGET under R1O, BFS, max_channel_length 3,
/// max_states 50000 (identical at every thread width).
constexpr std::size_t kExploreStates = 50000;
constexpr std::size_t kExploreTransitions = 481893;
constexpr std::size_t kExploreDedupHits = 431894;
constexpr bool kExploreOscillation = false;

/// What the break search's attempts before tiebreak:3 explore, the same
/// for every workload seed: per spec, how many of its 8 attempts leave
/// each set of GOOD-GADGET nodes flipped ({} is the base instance). The
/// most common such sweep among base seeds that break on their first
/// tiebreak:3 attempt.
constexpr const char* kSearchSweep =
    "tiebreak:1 {1}x3 {2}x3 {3}x2; "
    "tiebreak:2 {}x3 {1,2}x2 {1,3}x1 {2,3}x2";

/// Digest of the break search's expected edit-set JSON (its first
/// tiebreak:3 attempt, which every model's search must return), for
/// workload seeds 0-15.
constexpr const char* kSearchDigests[16] = {
    "6f6a830e07ca63fa",  // seed 0
    "c1f0f452c84aee71",  // seed 1
    "aff21ffcd2d9eb53",  // seed 2
    "98771ec7bf7a7da5",  // seed 3
    "2436a83d0e5f0424",  // seed 4
    "4d639e1a54c94ac1",  // seed 5
    "4a4d8df5d43d5fb8",  // seed 6
    "273398f502dfe21c",  // seed 7
    "159afd9eaa3ec3bb",  // seed 8
    "e9367a6d7c781266",  // seed 9
    "8562553c90b98a4a",  // seed 10
    "8752bfd282165b4d",  // seed 11
    "29e22b69e22f226d",  // seed 12
    "569c581957623f53",  // seed 13
    "c604456ad92cba1f",  // seed 14
    "c9e0b8df27f1cade",  // seed 15
};

/// Digest of the 24 per-model campaign digests (width 1), for workload
/// seeds 0-15.
constexpr const char* kCampaignDigests[16] = {
    "8ebdd9c9650d0c21",  // seed 0
    "c6c76101d4b75fdc",  // seed 1
    "eeffd2293d5cd5ee",  // seed 2
    "1d1207aff39ac024",  // seed 3
    "4be9a33baa72aa89",  // seed 4
    "9a099e551f371471",  // seed 5
    "479fd16504293085",  // seed 6
    "8886b85883d13bce",  // seed 7
    "9d3ad44787552d2e",  // seed 8
    "9cde337ab9d3457a",  // seed 9
    "87a17af9fc19099a",  // seed 10
    "c6bad610cb1098cd",  // seed 11
    "2abb2a20312029eb",  // seed 12
    "635a5cc4c6438e1a",  // seed 13
    "2bbe32dcd5b64163",  // seed 14
    "cd2392a4caa15457",  // seed 15
};

}  // namespace perfbench
