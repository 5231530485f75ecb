/// \file perf_snapshot_load.cc
/// \brief E15 — snapshot load vs rebuild-from-XML.
///
/// The snapshot format exists so a server can come up (or hot-republish)
/// without re-running the ingestion pipeline.  This bench puts a number
/// on that: one synthetic knowledge base is serialized both ways — as a
/// MediaWiki XML dump (the real ingestion input, see wiki/dump.h) and as
/// a versioned binary snapshot (snapshot/format.h) — and the two startup
/// paths race:
///
///   rebuild  — `wiki::ParseDump(xml)` + `Freeze()`: parse, node/edge
///              inserts, CSR construction;
///   mmap     — `snapshot::LoadSnapshot(kMmap)`: map, validate
///              (checksums on, the production default), bind spans;
///   copy     — `snapshot::LoadSnapshot(kCopy)`: same, via one read().
///
/// Hard correctness gates (aborts, not just reporting):
///   - both load modes return a graph whose every CSR section is
///     byte-identical to the original's, with equal titles and counts,
///     before anything is timed;
///   - `speedup_vs_rebuild` (rebuild_ms / mmap_ms) reaches the >= 10x
///     acceptance bar — the win is skipped parsing and graph building,
///     not parallelism, so it holds on any machine.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_common.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "graph/csr.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "wiki/dump.h"
#include "wiki/knowledge_base.h"
#include "wiki/synthetic.h"

using namespace wqe;

namespace {

template <typename T>
bool SpanEq(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

bool SectionsBitIdentical(const graph::CsrSections& a,
                          const graph::CsrSections& b) {
  return SpanEq(a.kinds, b.kinds) &&
         SpanEq(a.redirect_target, b.redirect_target) &&
         SpanEq(a.out_offsets, b.out_offsets) &&
         SpanEq(a.out_targets, b.out_targets) &&
         SpanEq(a.out_kinds, b.out_kinds) &&
         SpanEq(a.in_offsets, b.in_offsets) &&
         SpanEq(a.in_sources, b.in_sources) &&
         SpanEq(a.in_kinds, b.in_kinds) &&
         SpanEq(a.und_offsets, b.und_offsets) &&
         SpanEq(a.und_neighbors, b.und_neighbors) &&
         SpanEq(a.und_mult, b.und_mult) &&
         a.edge_kind_counts == b.edge_kind_counts &&
         a.node_kind_counts == b.node_kind_counts;
}

wiki::KnowledgeBase RebuildFromXml(const std::string& xml) {
  auto kb = wiki::ParseDump(xml);
  WQE_CHECK_OK(kb.status());
  kb->Freeze();
  return std::move(*kb);
}

}  // namespace

int main() {
  // Same scale knob as the shared bench context (WQE_BENCH_DOMAINS);
  // the KB itself is built directly so this binary does not pay for
  // topics/ground truth it never touches.
  wiki::SyntheticWikipediaOptions options;
  options.num_domains = bench::BenchTestbedOptions().wiki.num_domains;
  auto wiki = wiki::GenerateSyntheticWikipedia(options);
  WQE_CHECK_OK(wiki.status());
  wiki::KnowledgeBase& kb = wiki->kb;
  kb.Freeze();

  const std::string xml = wiki::WriteDump(kb);
  const std::string path = "snapshot_bench.bin";  // cwd = build dir
  WQE_CHECK_OK(snapshot::WriteSnapshot(kb, path));
  auto reader = snapshot::Reader::Open(path);
  WQE_CHECK_OK(reader.status());
  const uint64_t snapshot_bytes = reader->info().file_size;

  // Hard identity gates before any timing: every startup path must
  // produce the same graph, byte for byte.
  {
    wiki::KnowledgeBase rebuilt = RebuildFromXml(xml);
    WQE_CHECK(
        SectionsBitIdentical(kb.csr().Sections(), rebuilt.csr().Sections()));
    for (snapshot::LoadMode mode :
         {snapshot::LoadMode::kMmap, snapshot::LoadMode::kCopy}) {
      snapshot::ReadOptions read_options;
      read_options.mode = mode;
      read_options.verify_invariants = true;
      auto loaded = snapshot::LoadSnapshot(path, read_options);
      WQE_CHECK_OK(loaded.status());
      WQE_CHECK(SectionsBitIdentical(kb.csr().Sections(),
                                     loaded->csr().Sections()));
      WQE_CHECK(loaded->num_articles() == kb.num_articles());
      for (graph::NodeId u = 0; u < kb.csr().num_nodes(); ++u) {
        WQE_CHECK(loaded->title(u) == kb.title(u));
        WQE_CHECK(loaded->display_title(u) == kb.display_title(u));
      }
    }
  }

  // Min-of-reps timing, arms alternated so drift hits all three equally.
  constexpr int kReps = 5;
  double rebuild_ms = 1e300;
  double mmap_ms = 1e300;
  double copy_ms = 1e300;
  Stopwatch watch;
  for (int rep = 0; rep < kReps; ++rep) {
    watch.Reset();
    wiki::KnowledgeBase rebuilt = RebuildFromXml(xml);
    rebuild_ms = std::min(rebuild_ms, watch.ElapsedMillis());
    WQE_CHECK(rebuilt.csr().num_nodes() == kb.csr().num_nodes());

    snapshot::ReadOptions mmap_options;  // checksums on: the default
    watch.Reset();
    auto mapped = snapshot::LoadSnapshot(path, mmap_options);
    mmap_ms = std::min(mmap_ms, watch.ElapsedMillis());
    WQE_CHECK_OK(mapped.status());
    WQE_CHECK(mapped->csr().num_nodes() == kb.csr().num_nodes());

    snapshot::ReadOptions copy_options;
    copy_options.mode = snapshot::LoadMode::kCopy;
    watch.Reset();
    auto copied = snapshot::LoadSnapshot(path, copy_options);
    copy_ms = std::min(copy_ms, watch.ElapsedMillis());
    WQE_CHECK_OK(copied.status());
    WQE_CHECK(copied->csr().num_nodes() == kb.csr().num_nodes());
  }
  const double speedup = rebuild_ms / mmap_ms;

  TablePrinter table("E15 — snapshot load vs rebuild-from-XML");
  table.SetHeader({"path", "input bytes", "ms", "vs rebuild"});
  table.AddRow({"rebuild (parse+freeze)", std::to_string(xml.size()),
                FormatDouble(rebuild_ms, 2), "1.00"});
  table.AddRow({"snapshot mmap", std::to_string(snapshot_bytes),
                FormatDouble(mmap_ms, 2), FormatDouble(speedup, 2)});
  table.AddRow({"snapshot copy", std::to_string(snapshot_bytes),
                FormatDouble(copy_ms, 2),
                FormatDouble(rebuild_ms / copy_ms, 2)});
  table.Print();

  std::printf("\ngraphs bit-identical across all three startup paths "
              "(checked before timing)\nspeedup_vs_rebuild: %.1fx\n",
              speedup);

  const std::string config =
      "nodes=" + std::to_string(kb.csr().num_nodes()) +
      ";edges=" + std::to_string(kb.csr().num_edges()) +
      ";domains=" + std::to_string(options.num_domains);
  bench::BenchJsonWriter json("perf_snapshot_load");
  json.Add("rebuild_xml", "total_ms", rebuild_ms, config);
  json.Add("snapshot_mmap", "total_ms", mmap_ms, config);
  json.Add("snapshot_copy", "total_ms", copy_ms, config);
  json.Add("snapshot_mmap", "speedup_vs_rebuild", speedup, config);
  json.Add("snapshot_file", "bytes", static_cast<double>(snapshot_bytes),
           config);
  json.Add("xml_dump", "bytes", static_cast<double>(xml.size()), config);
  json.Write();

  // The ISSUE-10 acceptance bar: startup from a snapshot must beat
  // re-ingesting the XML by an order of magnitude.
  WQE_CHECK(speedup >= 10.0);
  return 0;
}
