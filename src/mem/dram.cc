#include "mem/dram.hh"

#include "mem/request.hh"

namespace nvsim
{

DramEpoch
DramDevice::drainEpoch()
{
    DramEpoch e = epoch_;
    total_.casReads += e.casReads;
    total_.casWrites += e.casWrites;
    epoch_ = DramEpoch{};
    return e;
}

const char *
cacheOutcomeName(CacheOutcome outcome)
{
    switch (outcome) {
      case CacheOutcome::Hit:
        return "hit";
      case CacheOutcome::MissClean:
        return "miss_clean";
      case CacheOutcome::MissDirty:
        return "miss_dirty";
      case CacheOutcome::DdoHit:
        return "ddo_hit";
      case CacheOutcome::Uncached:
        return "uncached";
    }
    return "unknown";
}

const char *
accessCauseName(AccessCause cause)
{
    switch (cause) {
      case AccessCause::TagProbe:
        return "tag_probe";
      case AccessCause::CacheFillRead:
        return "cache_fill_read";
      case AccessCause::CacheInsertWrite:
        return "cache_insert_write";
      case AccessCause::DataWrite:
        return "data_write";
      case AccessCause::DirtyWriteback:
        return "dirty_writeback";
      case AccessCause::DdoElideWrite:
        return "ddo_elide_write";
      case AccessCause::DirectAccess:
        return "direct_access";
      case AccessCause::DataRead:
        return "data_read";
      case AccessCause::BypassRead:
        return "bypass_read";
      case AccessCause::QueueWait:
        return "queue_wait";
      case AccessCause::WriteDrain:
        return "write_drain";
      case AccessCause::BankConflict:
        return "bank_conflict";
    }
    return "unknown";
}

} // namespace nvsim
