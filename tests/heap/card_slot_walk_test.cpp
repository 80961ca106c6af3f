// Partition tests for the on-card slot rule (for_each_slot_on_card): over
// every card of a space, the walk must visit each reference slot below the
// space's parse limit exactly once, from the card the slot lies on, and
// nothing at or above the limit. Covered for the three limits the
// collectors use: a contiguous space's top (scavenger), a free-list old
// generation's end (CMS), and the top of the region holding each cell
// (G1). The spaces mix objects larger than a card, headers that end a card
// whose slots start on the next, zero-ref cells, CMS free chunks, stale
// objects past the limit, and limits in the middle of a card.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "heap/arena.h"
#include "heap/block_offset_table.h"
#include "heap/card_table.h"
#include "heap/free_list_space.h"
#include "heap/region.h"
#include "support/rng.h"
#include "support/units.h"

namespace mgc {
namespace {

struct Heap {
  explicit Heap(std::size_t bytes) : arena(bytes) {
    cards.initialize(arena.base(), arena.size());
    bot.initialize(arena.base(), arena.size());
  }
  Arena arena;
  CardTable cards;
  BlockOffsetTable bot;
};

// Bump-fills [cur, end) with cells of random shape, recording each in the
// BOT, and returns the new cursor. Shapes: small objects, objects larger
// than a card, zero-ref objects, fillers, and objects whose header is the
// last 16 bytes of a card so their slots start on the next card.
char* fill(BlockOffsetTable& bot, Rng& rng, char* cur, char* end) {
  while (cur < end) {
    std::size_t words = 0;
    std::uint16_t refs = 0;
    bool filler = false;
    switch (rng.below(5)) {
      case 0:  // small
        refs = static_cast<std::uint16_t>(rng.below(7));
        words = Obj::shape_words(refs, rng.below(5));
        break;
      case 1:  // larger than a card
        refs = static_cast<std::uint16_t>(rng.in_range(64, 300));
        words = Obj::shape_words(refs, rng.below(40));
        break;
      case 2:  // zero-ref
        words = Obj::shape_words(0, rng.below(80));
        break;
      case 3:  // filler
        filler = true;
        words = Obj::shape_words(0, rng.below(10));
        break;
      default: {  // pad so the next header ends its card
        const auto off =
            static_cast<std::size_t>(cur - bot.card_base(bot.card_of(cur)));
        const std::size_t gap = (2 * kCardSize - 16 - off) % kCardSize;
        if (gap == 0) continue;
        filler = true;
        words = gap / kWordSize;
      }
    }
    if (cur + words_to_bytes(words) > end) {
      words = static_cast<std::size_t>(end - cur) / kWordSize;
      refs = 0;
      filler = true;
    }
    if (filler) {
      Obj::init_filler(cur, words);
    } else {
      Obj::init(cur, words, refs);
    }
    bot.record_block(cur, cur + words_to_bytes(words));
    cur += words_to_bytes(words);
  }
  return cur;
}

// Every slot of the non-free cells in [from, to) whose address is below
// `limit(address)`.
template <typename Limit>
void expect_slots(char* from, char* to, Limit limit,
                  std::map<const void*, int>& expected) {
  for (char* cur = from; cur < to;) {
    auto* cell = reinterpret_cast<Obj*>(cur);
    if (!cell->is_free_chunk()) {
      for (std::size_t i = 0; i < cell->num_refs(); ++i) {
        const char* slot = reinterpret_cast<const char*>(&cell->refs()[i]);
        if (slot < limit(slot)) expected[slot] = 1;
      }
    }
    cur = cell->end();
  }
}

// Walks every card covering [from, to) and checks the partition.
template <typename Limit>
void check_partition(const Heap& h, char* from, char* to, Limit limit,
                     const std::map<const void*, int>& expected) {
  std::map<const void*, int> seen;
  const std::size_t first = h.cards.index_of(from);
  const std::size_t last = h.cards.index_of(to - 1) + 1;
  for (std::size_t c = first; c < last; ++c) {
    for_each_slot_on_card(h.bot, h.cards, c, limit, [&](Obj*, RefSlot& s) {
      const char* slot = reinterpret_cast<const char*>(&s);
      EXPECT_EQ(h.cards.index_of(slot), c) << "slot visited from another card";
      EXPECT_LT(slot, limit(slot)) << "slot at or above the limit";
      ++seen[slot];
    });
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(seen, expected);
}

TEST(CardSlotWalk, ContiguousTopPartitionsSlots) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Heap h(64 * kCardSize);
    Rng rng(seed);
    char* const base = h.arena.base();
    // The top lands mid-card; stale objects with slots lie above it.
    char* top = fill(h.bot, rng, base, base + 40 * kCardSize + 16 * rng.in_range(1, 20));
    if (h.cards.card_base(h.cards.index_of(top)) == top) {
      top = fill(h.bot, rng, top, top + 48);
    }
    fill(h.bot, rng, top, h.arena.end());
    auto limit = [top](const char*) { return top; };
    std::map<const void*, int> expected;
    expect_slots(base, top, limit, expected);
    check_partition(h, base, h.arena.end(), limit, expected);
  }
}

TEST(CardSlotWalk, FreeListOldEndPartitionsSlotsAndSkipsFreeChunks) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Heap h(64 * kCardSize);
    Rng rng(seed);
    FreeListSpace space;
    space.initialize("old", h.arena.base(), h.arena.size(), &h.bot);
    std::vector<Obj*> objs;
    while (true) {
      const auto refs = static_cast<std::uint16_t>(
          rng.below(3) == 0 ? rng.in_range(64, 300) : rng.below(7));
      // The space never carves cells below its minimum chunk size.
      const std::size_t words = std::max(FreeListSpace::kMinChunkWords,
                                         Obj::shape_words(refs, rng.below(20)));
      Obj* o = space.alloc_obj(words, refs, /*black=*/false);
      if (o == nullptr) break;
      objs.push_back(o);
    }
    std::size_t chunks = 0;
    for (Obj* o : objs) {
      if (rng.below(3) == 0) {
        space.free_chunk(o->start(), o->size_bytes());
        ++chunks;
      }
    }
    ASSERT_GT(chunks, 0u);
    char* const end = space.end();
    auto limit = [end](const char*) { return end; };
    std::map<const void*, int> expected;
    expect_slots(space.base(), end, limit, expected);
    check_partition(h, space.base(), end, limit, expected);
  }
}

TEST(CardSlotWalk, PerRegionTopPartitionsSlotsIncludingHumongous) {
  constexpr std::size_t kRegion = 8 * kCardSize;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Heap h(16 * kRegion);
    Rng rng(seed);
    RegionManager rm;
    rm.initialize(h.arena.base(), h.arena.size(), kRegion);
    // A humongous object over three regions; its slots run into the last.
    const std::size_t hum_bytes = 2 * kRegion + kCardSize + 16 * rng.in_range(1, 20);
    Region* head = rm.allocate_humongous(3);
    ASSERT_NE(head, nullptr);
    char* const data_end = head->base + hum_bytes;
    for (std::size_t i = 0; i < 3; ++i) {
      Region& r = rm.region_at(head->index + i);
      r.set_top(std::min(r.end, data_end));
    }
    const auto hum_refs = static_cast<std::uint16_t>(
        (hum_bytes - sizeof(ObjHeader)) / sizeof(RefSlot));
    Obj::init(head->base, hum_bytes / kWordSize, hum_refs);
    h.bot.record_block(head->base, data_end);
    // Old regions filled to a top mid-card, stale objects above it; the
    // remaining regions stay free.
    for (int n = 0; n < 8; ++n) {
      Region* r = rm.allocate_region(RegionType::kOld);
      ASSERT_NE(r, nullptr);
      char* top = fill(h.bot, rng, r->base, r->base + 16 * rng.in_range(1, kRegion / 16 - 8));
      if (h.cards.card_base(h.cards.index_of(top)) == top) {
        top = fill(h.bot, rng, top, top + 48);
      }
      r->set_top(top);
      fill(h.bot, rng, top, r->end);
    }
    auto limit = [&rm](const char* a) { return rm.region_of(a)->top(); };
    std::map<const void*, int> expected;
    for (std::size_t i = 0; i < rm.num_regions(); ++i) {
      Region& r = rm.region_at(i);
      if (r.type() == RegionType::kOld) expect_slots(r.base, r.end, limit, expected);
    }
    expect_slots(head->base, data_end, limit, expected);
    check_partition(h, h.arena.base(), h.arena.end(), limit, expected);
  }
}

}  // namespace
}  // namespace mgc
