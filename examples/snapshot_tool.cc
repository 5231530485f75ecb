/// \file snapshot_tool.cc
/// \brief Snapshot lifecycle CLI: build a knowledge base (synthetic, or
/// imported from a MediaWiki XML dump), write it to the versioned
/// on-disk snapshot format, then reload it and print the section table
/// — sizes, offsets, checksums — plus the load timing.
///
/// Usage:
///   snapshot_tool [snapshot.bin]            synthetic knowledge base
///   snapshot_tool [snapshot.bin] dump.xml   import a MediaWiki dump
///
/// Default snapshot path: /tmp/wqe_snapshot.bin

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "wiki/dump.h"
#include "wiki/knowledge_base.h"
#include "wiki/synthetic.h"

using namespace wqe;

namespace {

wiki::KnowledgeBase BuildKb(int argc, char** argv) {
  if (argc > 2) {
    std::ifstream in(argv[2], std::ios::binary);
    WQE_CHECK(in.good());
    std::string xml((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    wiki::DumpImportStats stats;
    auto kb = wiki::ParseDump(xml, &stats);
    WQE_CHECK_OK(kb.status());
    std::cout << "imported " << argv[2] << ": " << stats.pages
              << " pages -> " << stats.articles << " articles, "
              << stats.categories << " categories, " << stats.redirects
              << " redirects\n";
    return std::move(*kb);
  }
  wiki::SyntheticWikipediaOptions options;
  options.num_domains = 32;
  auto wiki = wiki::GenerateSyntheticWikipedia(options);
  WQE_CHECK_OK(wiki.status());
  std::cout << "generated synthetic wiki: " << wiki->kb.num_articles()
            << " articles, " << wiki->kb.num_categories()
            << " categories, " << wiki->kb.num_redirects()
            << " redirects\n";
  return std::move(wiki->kb);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/wqe_snapshot.bin";

  const wiki::KnowledgeBase kb = BuildKb(argc, argv);  // frozen

  Stopwatch write_watch;
  WQE_CHECK_OK(snapshot::WriteSnapshot(kb, path));
  std::printf("wrote %s in %.2f ms\n", path.c_str(),
              write_watch.ElapsedMillis());

  auto reader = snapshot::Reader::Open(path);
  WQE_CHECK_OK(reader.status());
  const snapshot::SnapshotInfo& info = reader->info();
  std::printf("format v%u, %zu bytes, file checksum %016llx\n",
              info.version, static_cast<size_t>(info.file_size),
              static_cast<unsigned long long>(info.file_checksum));
  std::printf("%u nodes, %zu edges, %zu sections:\n",
              static_cast<unsigned>(info.num_nodes),
              static_cast<size_t>(info.num_edges), info.sections.size());
  std::printf("  %-16s %6s %10s %12s %10s  %s\n", "section", "elem",
              "count", "bytes", "offset", "checksum");
  for (const snapshot::SectionInfo& s : info.sections) {
    std::printf("  %-16s %6u %10llu %12llu %10llu  %016llx\n", s.name,
                s.elem_size, static_cast<unsigned long long>(s.count),
                static_cast<unsigned long long>(s.size_bytes),
                static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.checksum));
  }

  Stopwatch load_watch;
  auto loaded = snapshot::LoadSnapshot(path);
  const double load_ms = load_watch.ElapsedMillis();
  WQE_CHECK_OK(loaded.status());
  std::printf("reload: %u nodes, %zu edges in %.2f ms\n",
              loaded->csr().num_nodes(), loaded->csr().num_edges(), load_ms);
  std::cout << "snapshot round trip OK.\n";
  return 0;
}
