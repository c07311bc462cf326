/**
 * @file
 * Exact division by a run-time constant without a hardware divide.
 *
 * A power-of-two divisor splits by shift and mask. Any other divisor d
 * uses the Granlund-Montgomery round-up method with a 65-bit magic
 * number, as libdivide's branch-free u64 divider does: with
 * l = floor(log2 d) and m = floor(2^(65+l) / d) + 1, the quotient is
 * floor(n * m / 2^(65+l)) for every 64-bit n, because
 * m * d - 2^(65+l) <= d <= 2^(l+1) (Granlund and Montgomery, PLDI '94,
 * Theorem 4.2). The low 64 bits of m are stored; the implicit 2^64 is
 * added back by the ((n - hi) >> 1) + hi step, which cannot overflow.
 */

#ifndef NVSIM_CORE_DIVIDER_HH
#define NVSIM_CORE_DIVIDER_HH

#include <bit>
#include <cstdint>

namespace nvsim
{

/** Quotient and remainder by a fixed nonzero divisor. */
class Divider
{
  public:
    /** Divisor @p d must be nonzero. */
    explicit Divider(std::uint64_t d = 1) : d_(d)
    {
        const unsigned l = 63 - std::countl_zero(d);
        shift_ = l;
        if (std::has_single_bit(d)) {
            mask_ = d - 1;
            return;
        }
        // floor(2^(64+l) / d) < 2^64 because d > 2^l; doubling it with
        // the carry of the doubled remainder gives floor(2^(65+l) / d)
        // minus its implicit 2^64.
        const unsigned __int128 num = static_cast<unsigned __int128>(1)
                                      << (64 + l);
        std::uint64_t m = static_cast<std::uint64_t>(num / d);
        const std::uint64_t rem = static_cast<std::uint64_t>(num % d);
        const std::uint64_t twice = rem + rem;
        m += m;
        if (twice >= d || twice < rem)
            ++m;
        magic_ = m + 1;
    }

    std::uint64_t divisor() const { return d_; }

    /** n / d. */
    std::uint64_t
    quot(std::uint64_t n) const
    {
        if (magic_ == 0)
            return n >> shift_;
        const std::uint64_t hi = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(n) * magic_) >> 64);
        return (((n - hi) >> 1) + hi) >> shift_;
    }

    /** n % d. */
    std::uint64_t
    rem(std::uint64_t n) const
    {
        return magic_ == 0 ? n & mask_ : n - quot(n) * d_;
    }

    /** Both: @p q = n / d and @p r = n % d. */
    void
    divmod(std::uint64_t n, std::uint64_t &q, std::uint64_t &r) const
    {
        if (magic_ == 0) {
            q = n >> shift_;
            r = n & mask_;
        } else {
            q = quot(n);
            r = n - q * d_;
        }
    }

  private:
    std::uint64_t d_;
    std::uint64_t magic_ = 0;  //!< 0 iff d_ is a power of two
    std::uint64_t mask_ = 0;   //!< d_ - 1 when a power of two
    unsigned shift_ = 0;
};

} // namespace nvsim

#endif // NVSIM_CORE_DIVIDER_HH
