/** @file Divider against the hardware / and %. */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/divider.hh"

using namespace nvsim;

namespace
{

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

/** Numerators around the divisor's multiples and at the range ends. */
std::vector<std::uint64_t>
edges(std::uint64_t d)
{
    std::vector<std::uint64_t> n = {0, 1, d - 1, d, kMax, kMax - 1,
                                    kMax / d * d, kMax - kMax % d - 1};
    for (std::uint64_t k : {std::uint64_t{1}, std::uint64_t{2},
                            std::uint64_t{3}, std::uint64_t{1000},
                            std::uint64_t{1} << 20, kMax / d}) {
        if (k > kMax / d)
            continue;
        n.push_back(k * d);
        n.push_back(k * d - 1);
        if (k * d < kMax)
            n.push_back(k * d + 1);
    }
    return n;
}

::testing::AssertionResult
exact(const Divider &div, std::uint64_t n)
{
    const std::uint64_t d = div.divisor();
    std::uint64_t q = 0, r = 0;
    div.divmod(n, q, r);
    if (div.quot(n) != n / d || div.rem(n) != n % d || q != n / d ||
        r != n % d) {
        return ::testing::AssertionFailure()
               << n << " / " << d << ": got " << div.quot(n) << " rem "
               << div.rem(n) << " (divmod " << q << ", " << r
               << "), want " << n / d << " rem " << n % d;
    }
    return ::testing::AssertionSuccess();
}

} // namespace

TEST(Divider, SmallDivisorsMatchHardware)
{
    for (std::uint64_t d = 1; d <= 1000; ++d) {
        const Divider div(d);
        for (std::uint64_t n : edges(d))
            ASSERT_TRUE(exact(div, n));
        for (std::uint64_t n = 0; n < 3 * d + 2; ++n)
            ASSERT_TRUE(exact(div, n));
    }
}

TEST(Divider, LargeDivisorsMatchHardware)
{
    const std::uint64_t big[] = {
        (1ull << 32) - 1, 1ull << 32, (1ull << 32) + 1,
        1000000007ull, 6ull << 40, 12345678901234567ull,
        (1ull << 63) - 1, 1ull << 63, (1ull << 63) + 1,
        kMax - 1, kMax};
    for (std::uint64_t d : big) {
        const Divider div(d);
        for (std::uint64_t n : edges(d))
            ASSERT_TRUE(exact(div, n));
        // A spread of numerators across the whole 64-bit range.
        std::uint64_t n = 0x9E3779B97F4A7C15ull;
        for (int i = 0; i < 1000; ++i) {
            n = n * 6364136223846793005ull + 1442695040888963407ull;
            ASSERT_TRUE(exact(div, n));
        }
    }
}
