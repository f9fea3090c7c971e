#include "serve/study_catalog.hpp"

#include <cstdio>

#include "serve/byte_io.hpp"

namespace irp {
namespace {

std::string checksum_hex(std::uint64_t checksum) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(checksum));
  return std::string(buf);
}

}  // namespace

StudyCatalog::StudyCatalog(StudyCatalogConfig config) : config_(config) {}

const StudyCatalog::Study& StudyCatalog::add_study(std::string name,
                                                   OracleSnapshot snapshot) {
  IRP_CHECK(!name.empty(), "study name must be nonempty");
  IRP_CHECK(name.find('=') == std::string::npos &&
                name.find('@') == std::string::npos,
            "study name must not contain '=' or '@'");
  IRP_CHECK(find(name) == nullptr, "duplicate study name '" + name + "'");

  // Identity is content-derived: checksum the canonical image bytes.
  const std::string image = snapshot.to_bytes();

  auto study = std::make_unique<Study>();
  study->name = name;
  study->id = name + "@" + checksum_hex(fnv1a64(image));
  study->ordinal = static_cast<std::uint32_t>(studies_.size());
  study->image_bytes = image.size();
  study->snapshot = std::move(snapshot);

  OracleIndexConfig index_config;
  index_config.route_shards = config_.route_shards;
  index_config.cache_shards = config_.cache_shards;
  index_config.cache_capacity = 0;  // Budgeted below, across all studies.
  study->index = std::make_unique<OracleIndex>(&study->snapshot, index_config);
  studies_.push_back(std::move(study));

  // A new study resets every quota to an even split of the budget.
  const std::size_t quota = config_.total_cache_capacity / studies_.size();
  for (const auto& s : studies_) s->index->set_cache_capacity(quota);
  return *studies_.back();
}

const StudyCatalog::Study& StudyCatalog::add_study_file(
    std::string name, const std::string& path) {
  return add_study(std::move(name), OracleSnapshot::load(path));
}

const StudyCatalog::Study* StudyCatalog::find(
    std::string_view name_or_id) const {
  if (name_or_id.empty()) return default_study();
  for (const auto& study : studies_)
    if (study->name == name_or_id || study->id == name_or_id)
      return study.get();
  return nullptr;
}

const StudyCatalog::Study* StudyCatalog::default_study() const {
  return studies_.empty() ? nullptr : studies_.front().get();
}

StudyCatalog::CacheBudgetView StudyCatalog::cache_budget() const {
  CacheBudgetView view;
  view.total_capacity = config_.total_cache_capacity;
  view.per_study.reserve(studies_.size());
  for (const auto& study : studies_) {
    CacheBudgetView::PerStudy per;
    per.name = study->name;
    per.stats = study->index->cache_stats();
    per.quota = per.stats.capacity;
    view.per_study.push_back(std::move(per));
  }
  return view;
}

}  // namespace irp
