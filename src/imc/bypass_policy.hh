/**
 * @file
 * Banshee/TicToc-style bypass-and-selective-insert policy
 * ("bypass_selective_insert").
 *
 * Banshee (Yu et al., MICRO 2017) inserts a page into the DRAM cache
 * only when its access frequency beats the would-be victim's; TicToc
 * balances hit bandwidth against miss-handler bandwidth by inserting
 * selectively instead of on every miss. Both attack the same paper
 * observation: insert-on-every-miss turns a streaming miss into three
 * device accesses (fetch + insert + later eviction writeback) when one
 * would do.
 *
 * This policy keeps the tags-in-ECC probe and the DDO machinery of the
 * stock controller (so its hits and DDO elisions cost exactly what
 * Table I says) but gates the miss handler on a per-line miss
 * frequency counter: a line is inserted only once it has missed
 * insertThreshold times. Colder misses bypass — reads are served
 * straight from NVRAM, writes go straight to NVRAM — trading hit rate
 * for a large cut in device-access amplification on low-locality
 * workloads, which is precisely the trade the paper's Figure 4
 * microbenchmarks punish the stock policy for.
 */

#ifndef NVSIM_IMC_BYPASS_POLICY_HH
#define NVSIM_IMC_BYPASS_POLICY_HH

#include <cstdint>
#include <vector>

#include "imc/dram_cache.hh"

namespace nvsim
{

/** Frequency-gated selective insertion on top of the stock machinery. */
class BypassSelectiveInsertPolicy : public DirectMappedTagEccPolicy
{
  public:
    BypassSelectiveInsertPolicy(const DramCacheParams &params,
                                const CachePolicyConfig &config);

    const char *kindName() const override
    {
        return "bypass_selective_insert";
    }

    unsigned insertThreshold() const { return threshold_; }

    /** Current miss count the frequency table holds for @p addr. */
    unsigned missCount(Addr addr) const;

  protected:
    /**
     * Count the miss against the line's frequency entry; insert only
     * once the line has earned threshold_ misses. Entries alias
     * direct-mapped by line index, so cold lines decay naturally under
     * pressure — the same bounded-state trick the DDO tracker uses.
     */
    bool shouldInsert(Addr addr, MemRequestKind kind) override;

  private:
    struct Entry
    {
        Addr line = 0;       //!< line address + 1; 0 = empty
        std::uint32_t count = 0;
    };

    std::uint32_t slot(Addr line) const;

    unsigned threshold_;
    std::uint32_t mask_;          //!< table size - 1 (power of two)
    std::vector<Entry> table_;
};

} // namespace nvsim

#endif // NVSIM_IMC_BYPASS_POLICY_HH
