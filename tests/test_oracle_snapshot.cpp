// Oracle snapshot tests: freeze a real passive study, prove the binary
// image round-trips byte-exactly, answers identically to a live-study
// oracle across the full scenario ladder, and rejects corrupted or
// truncated images with a checksum/version error instead of undefined
// behavior.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "core/classify.hpp"
#include "serve/byte_io.hpp"
#include "serve/oracle_service.hpp"
#include "test_support.hpp"
#include "util/check.hpp"

namespace irp {
namespace {

struct StudyFixture {
  std::unique_ptr<GeneratedInternet> net;
  PassiveDataset passive;
  OracleSnapshot snapshot;
  std::string bytes;
};

const StudyFixture& study() {
  static const StudyFixture fx = [] {
    StudyFixture f;
    f.net = generate_internet(test::small_generator_config());
    f.passive = run_passive_study(*f.net, test::small_passive_config());
    f.snapshot = snapshot_study(f.passive);
    f.bytes = f.snapshot.to_bytes();
    return f;
  }();
  return fx;
}

TEST(OracleSnapshot, CapturesTheStudy) {
  const StudyFixture& f = study();
  EXPECT_EQ(f.snapshot.num_ases, f.net->topology.num_ases());
  EXPECT_EQ(f.snapshot.relationships.size(), f.passive.inferred.num_links());
  EXPECT_GT(f.snapshot.routes.size(), 0u);
  EXPECT_GT(f.snapshot.num_route_entries(), 0u);
  EXPECT_GT(f.snapshot.paths.num_paths(), 1u);
}

TEST(OracleSnapshot, BinaryRoundTripIsByteExact) {
  const StudyFixture& f = study();
  const OracleSnapshot loaded = OracleSnapshot::from_bytes(f.bytes);
  // Re-serializing the loaded snapshot must reproduce the image bit for
  // bit — this covers every field of every section at once.
  EXPECT_EQ(loaded.to_bytes(), f.bytes);
}

TEST(OracleSnapshot, FileRoundTrip) {
  const StudyFixture& f = study();
  const std::string path =
      (std::filesystem::temp_directory_path() / "irp_oracle_snapshot.bin")
          .string();
  f.snapshot.save(path);
  const OracleSnapshot loaded = OracleSnapshot::load(path);
  EXPECT_EQ(loaded.to_bytes(), f.bytes);
  std::filesystem::remove(path);
}

TEST(OracleSnapshot, ClassifiesIdenticallyToLiveStudy) {
  const StudyFixture& f = study();
  const OracleSnapshot loaded = OracleSnapshot::from_bytes(f.bytes);
  const OracleIndex index(&loaded);
  OracleService service(&index, OracleService::Config{0, 1});

  const PassiveDataset& ds = f.passive;
  const DecisionClassifier live(&ds.inferred, f.net->topology.num_ases(),
                                &ds.hybrid, &ds.siblings, &ds.observations);
  std::size_t checked = 0;
  for (const NamedScenario& scenario : figure1_scenarios()) {
    for (const RouteDecision& d : ds.decisions) {
      const DecisionCategory expected = live.classify(d, scenario.options);
      ClassifyRequest req;
      req.decision = d;
      req.scenario = scenario.options;
      const OracleResponse resp = service.answer(OracleRequest{req});
      ASSERT_EQ(std::get<ClassifyResponse>(resp).category, expected)
          << scenario.name << " decision " << checked;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  // The second pass through identical keys must have produced cache hits
  // without changing a single answer (asserted above).
  EXPECT_GT(index.cache_stats().hits, 0u);
}

TEST(OracleSnapshot, RoutesMatchTheLiveEngine) {
  const StudyFixture& f = study();
  const OracleSnapshot loaded = OracleSnapshot::from_bytes(f.bytes);
  const OracleIndex index(&loaded);
  // The dataset keeps only the frozen RIB; converge the measurement epoch
  // again on one live engine, the monolithic reference.
  BgpEngine engine{&f.net->topology, f.passive.policy.get(),
                   f.net->measurement_epoch};
  announce_all(engine, f.net->topology, content_related_ases(*f.net));

  std::size_t route_entries = 0;
  for (const Ipv4Prefix& prefix : engine.prefixes()) {
    for (Asn asn = 1; asn <= static_cast<Asn>(f.net->topology.num_ases());
         ++asn) {
      const BgpEngine::Selected* live = engine.best(asn, prefix);
      const OracleSnapshot::RouteEntry* frozen = index.route(asn, prefix);
      ASSERT_EQ(live != nullptr, frozen != nullptr)
          << "AS " << asn << " " << prefix.to_string();
      if (live == nullptr) continue;
      ++route_entries;
      EXPECT_EQ(index.paths().materialize(frozen->selected),
                engine.paths().materialize(live->path_id));
      EXPECT_EQ(frozen->next_hop, live->next_hop);
      EXPECT_EQ(frozen->self_originated, live->self_originated);
      // Alternates: everything in the RIB except the selected route, with
      // paths preserved value-exactly through the re-interned table.
      const std::vector<Route> rib = engine.routes_at(asn, prefix);
      std::size_t expected_alternates = 0;
      for (const Route& route : rib)
        if (route.via_link != live->via_link) ++expected_alternates;
      ASSERT_EQ(frozen->alternates.size(), expected_alternates);
      std::size_t alt = 0;
      for (const Route& route : rib) {
        if (route.via_link == live->via_link) continue;
        EXPECT_EQ(index.paths().materialize(frozen->alternates[alt].path),
                  route.path);
        EXPECT_EQ(frozen->alternates[alt].from_asn, route.from_asn);
        ++alt;
      }
    }
  }
  EXPECT_EQ(route_entries, loaded.num_route_entries());
}

// fnv1a64 of the fixture image (header included). The image is a pure
// function of the study, so it must not move with the thread count or with
// how the measurement epoch is converged and stored. Re-record this value
// only for an intended change of the snapshot format or of the study itself.
constexpr std::uint64_t kPinnedFixtureImageFnv = 0x130be87d7e49409cULL;

TEST(OracleSnapshot, ImageBytesArePinned) {
  const StudyFixture& f = study();
  for (const int threads : {1, 2, 4}) {
    PassiveStudyConfig config = test::small_passive_config();
    config.parallel.threads = threads;
    const std::string bytes =
        snapshot_study(run_passive_study(*f.net, config)).to_bytes();
    EXPECT_EQ(fnv1a64(bytes), kPinnedFixtureImageFnv)
        << "threads=" << threads << " got 0x" << std::hex << fnv1a64(bytes);
  }
}

TEST(OracleSnapshot, RejectsBadMagic) {
  std::string bytes = study().bytes;
  bytes[0] ^= 0x5A;
  try {
    (void)OracleSnapshot::from_bytes(bytes);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
}

TEST(OracleSnapshot, RejectsUnsupportedVersion) {
  std::string bytes = study().bytes;
  bytes[4] = 0x7F;  // Version field, little-endian low byte.
  try {
    (void)OracleSnapshot::from_bytes(bytes);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(OracleSnapshot, RejectsTruncatedImages) {
  const std::string& bytes = study().bytes;
  // Shorter than the header.
  EXPECT_THROW((void)OracleSnapshot::from_bytes(bytes.substr(0, 10)),
               CheckError);
  // Header intact, payload cut off.
  EXPECT_THROW((void)OracleSnapshot::from_bytes(bytes.substr(0, 64)),
               CheckError);
  EXPECT_THROW(
      (void)OracleSnapshot::from_bytes(bytes.substr(0, bytes.size() - 1)),
      CheckError);
  // Trailing garbage (size mismatch) is also rejected.
  EXPECT_THROW((void)OracleSnapshot::from_bytes(bytes + "x"), CheckError);
}

TEST(OracleSnapshot, RejectsCorruptedPayloadViaChecksum) {
  for (const std::size_t victim :
       {std::size_t{24}, study().bytes.size() / 2, study().bytes.size() - 2}) {
    std::string bytes = study().bytes;
    bytes[victim] ^= 0x01;
    try {
      (void)OracleSnapshot::from_bytes(bytes);
      FAIL() << "expected CheckError for flip at " << victim;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
          << e.what();
    }
  }
}

TEST(OracleSnapshot, LoadOfMissingFileFails) {
  EXPECT_THROW((void)OracleSnapshot::load("/nonexistent/irp-oracle.bin"),
               CheckError);
}

}  // namespace
}  // namespace irp
