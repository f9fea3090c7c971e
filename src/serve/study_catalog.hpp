// StudyCatalog: many frozen studies behind one serving endpoint.
//
// The paper's passive study is re-run across seeds, scenarios, and snapshot
// epochs (§3.1, §4); comparing those runs used to mean one RouteOracle
// process per snapshot. A catalog loads N OracleSnapshot images, tags each
// with a study id, and exposes one OracleIndex per study so a single
// OracleService (and a single TCP endpoint) can answer queries against any
// of them. A study is exactly its image: each index reads its own
// snapshot's path table, and Study::snapshot re-serializes to the bytes the
// study id checksums.
//
// One resource is shared across studies: the classify-cache budget. Each
// study's sharded LRU keeps its own lock structure (no cross-study
// contention), but the total entry budget is a catalog-level constant,
// split evenly over the studies at load.
//
// Identity: a study id is "<name>@<fnv1a64 of the snapshot image>" — the
// operator-supplied name makes it addressable, the content checksum makes
// it unambiguous across re-converged epochs with the same name. Lookup
// accepts the bare name, the full id, or "" for the default (first-loaded)
// study; anything else is answered with UnknownStudyError / the wire's
// kUnknownStudy.
//
// Thread safety: the catalog is immutable after the last add_study() call;
// queries may then run concurrently from any thread (the only mutable state
// is inside each study's ClassifyCache, which locks per shard).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/oracle_index.hpp"
#include "util/check.hpp"

namespace irp {

/// Typed "no such study" error: thrown by OracleService::answer and carried
/// on the wire as WireErrorCode::kUnknownStudy.
class UnknownStudyError : public CheckError {
 public:
  explicit UnknownStudyError(std::string_view study)
      : CheckError("unknown study '" + std::string(study) + "'"),
        study_(study) {}
  const std::string& study() const { return study_; }

 private:
  std::string study_;
};

struct StudyCatalogConfig {
  /// Total classify-cache entries shared by every study in the catalog
  /// (the per-study OracleIndexConfig::cache_capacity is derived from this,
  /// never set directly). 0 disables caching for all studies.
  std::size_t total_cache_capacity = 8192;
  std::size_t cache_shards = 8;
  std::size_t route_shards = 8;
};

/// Immutable-after-load collection of studies sharing one classify-cache
/// budget.
class StudyCatalog {
 public:
  struct Study {
    std::string name;  ///< Operator-supplied; unique within the catalog.
    std::string id;    ///< "<name>@<16-hex content checksum>".
    std::uint32_t ordinal = 0;  ///< Load order; 0 is the default study.
    OracleSnapshot snapshot;    ///< The loaded image, as checksummed.
    std::unique_ptr<OracleIndex> index;
    std::size_t image_bytes = 0;  ///< Serialized snapshot size.
  };

  explicit StudyCatalog(StudyCatalogConfig config = {});

  StudyCatalog(const StudyCatalog&) = delete;
  StudyCatalog& operator=(const StudyCatalog&) = delete;

  /// Registers `snapshot` under `name` (nonempty, no '=' or '@', unique);
  /// the first study added becomes the default. Resets every study's cache
  /// quota to an even split of the budget. Returns the new study.
  const Study& add_study(std::string name, OracleSnapshot snapshot);

  /// load()s `path` and add_study()s it; the content checksum is computed
  /// from the file bytes.
  const Study& add_study_file(std::string name, const std::string& path);

  /// Resolves "" to the default study, otherwise matches a study name or
  /// full id; nullptr when nothing matches.
  const Study* find(std::string_view name_or_id) const;
  const Study* default_study() const;

  std::size_t size() const { return studies_.size(); }
  const std::vector<std::unique_ptr<Study>>& studies() const {
    return studies_;
  }

  struct CacheBudgetView {
    struct PerStudy {
      std::string name;
      std::size_t quota = 0;
      ClassifyCache::Stats stats;
    };
    std::size_t total_capacity = 0;
    std::vector<PerStudy> per_study;
  };
  CacheBudgetView cache_budget() const;

 private:
  StudyCatalogConfig config_;
  std::vector<std::unique_ptr<Study>> studies_;
};

}  // namespace irp
