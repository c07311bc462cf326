#include "sys/llc.hh"

#include <algorithm>
#include <bit>

#include "core/logging.hh"

namespace nvsim
{

namespace
{

constexpr std::uint64_t kNibbleOnes = 0x1111111111111111ull;

/** The ranks below @p n of a recency word (n <= 16). */
std::uint64_t
below(unsigned n)
{
    return n >= 16 ? ~std::uint64_t{0} : (std::uint64_t{1} << 4 * n) - 1;
}

/**
 * Rank of @p way in recency word @p order. A nibble equal to @p way
 * becomes zero in x, and the lowest zero nibble of x is the lowest set
 * flag of the classic has-zero test (a false flag needs a borrow from
 * a zero nibble below it). Unused nibbles above the ways hold 0 and
 * may match too, but only above the way's real rank.
 */
unsigned
rankOf(std::uint64_t order, unsigned way)
{
    const std::uint64_t x = order ^ (way * kNibbleOnes);
    return std::countr_zero((x - kNibbleOnes) & ~x & (kNibbleOnes << 3)) / 4;
}

} // namespace

Llc::Llc(const LlcParams &params)
    : ways_(params.ways ? params.ways : 1),
      numSets_(std::max<std::uint64_t>(params.capacity / kLineSize / ways_,
                                       1)),
      lines_(numSets_ * ways_), sets_(numSets_), mruShift_(4 * (ways_ - 1))
{
    if (ways_ > kMaxWays)
        fatal("LLC of %u ways exceeds the %u-way limit of its recency "
              "word", ways_, kMaxWays);
    for (unsigned r = 0; r < ways_; ++r)
        identity_ |= std::uint64_t{r} << 4 * r;
    tags_.assign(lines_, kInvalidTag);
    order_.assign(numSets_, identity_);
}

LlcResult
Llc::access(Addr addr, bool is_store)
{
    const std::uint64_t idx = lineIndex(addr);
    const std::uint64_t dirty = std::uint64_t{is_store} << 63;
    if (idx == cur_.idx + 1 && runLen_ == lines_)
        return streamMiss(dirty);
    if (idx == cur_.idx) {
        // The run's last line is its set's MRU already.
        ++hits_;
        tags_[cur_.way] |= dirty;
        return {.hit = true};
    }

    // Leaving the current line: it becomes the memo, and the old memo
    // line hits if its way still holds its tag.
    const Line memo = memo_;
    memo_ = cur_;
    Line line = memo;
    if (idx != memo.idx || (tags_[memo.way] & ~kDirtyBit) != memo.tag) {
        line.idx = idx;
        sets_.divmod(idx, line.tag, line.set);
        line.way = line.set * ways_ + findWay(line.set, line.tag);
    }
    std::uint64_t &order = order_[line.set];
    const std::uint64_t base = line.set * ways_;
    unsigned w = static_cast<unsigned>(line.way - base);
    LlcResult result;
    if (w == ways_) {
        // Miss: the victim is rank 0, and it rotates to MRU.
        w = order & 0xF;
        line.way = base + w;
        std::uint64_t &word = tags_[line.way];
        result.missed = true;
        ++misses_;
        if (word & kDirtyBit) {
            result.evictedDirty = true;
            ++dirtyEvictions_;
            result.victim = addrOf(line.set, word & ~kDirtyBit);
        }
        valid_ += word == kInvalidTag;
        word = line.tag | dirty;
        order = order >> 4 | std::uint64_t{w} << mruShift_;
    } else {
        // Hit: promote the way to MRU.
        result.hit = true;
        ++hits_;
        tags_[line.way] |= dirty;
        const std::uint64_t keep = below(rankOf(order, w));
        order = (order & keep) | (order >> 4 & ~keep) |
                std::uint64_t{w} << mruShift_;
    }

    // Extend the run, or open a new one at this line.
    runLen_ = idx == cur_.idx + 1 ? runLen_ + 1 : 1;
    cur_ = line;
    return result;
}

LlcResult
Llc::streamMiss(std::uint64_t dirty)
{
    // Line i evicts line i - C, its set's LRU way, one set further on.
    ++cur_.idx;
    if (++cur_.set == numSets_) {
        cur_.set = 0;
        ++cur_.tag;
    }
    std::uint64_t &order = order_[cur_.set];
    const unsigned v = order & 0xF;
    cur_.way = cur_.set * ways_ + v;
    std::uint64_t &word = tags_[cur_.way];

    LlcResult result;
    result.missed = true;
    ++misses_;
    if (word & kDirtyBit) {
        result.evictedDirty = true;
        ++dirtyEvictions_;
        result.victim = (cur_.idx - lines_) * kLineSize;
    }
    word = cur_.tag | dirty;
    order = order >> 4 | std::uint64_t{v} << mruShift_;
    return result;
}

void
Llc::invalidateLine(Addr addr)
{
    if (valid_ == 0)
        return;
    std::uint64_t set, tag;
    sets_.divmod(lineIndex(addr), tag, set);
    const unsigned w = findWay(set, tag);
    if (w == ways_)
        return;
    std::uint64_t *base = &tags_[set * ways_];
    base[w] = kInvalidTag;
    --valid_;
    ++ntInvalidates_;
    cur_.idx = kNoLine;

    // Move the way from its rank into the empty prefix, after the empty
    // ways of lower index: q <= p, so ranks q..p-1 shift up by one.
    unsigned q = 0;
    for (unsigned i = 0; i < w; ++i)
        q += base[i] == kInvalidTag;
    std::uint64_t &order = order_[set];
    const unsigned p = rankOf(order, w);
    order = (order & below(q)) | (order & below(p) & ~below(q)) << 4 |
            std::uint64_t{w} << 4 * q | (order & ~below(p + 1));
}

bool
Llc::resident(Addr addr) const
{
    std::uint64_t set, tag;
    sets_.divmod(lineIndex(addr), tag, set);
    return findWay(set, tag) != ways_;
}

void
Llc::invalidateAll()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(order_.begin(), order_.end(), identity_);
    valid_ = 0;
    cur_.idx = kNoLine;
}

} // namespace nvsim
