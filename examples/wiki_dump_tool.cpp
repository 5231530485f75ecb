/// \file wiki_dump_tool.cpp
/// \brief Domain example: MediaWiki dump export / import.
///
/// Shows the real-data ingestion path: generates a synthetic knowledge
/// base, serializes it as a MediaWiki XML dump, re-imports the dump with
/// the parser that also accepts genuine Wikipedia exports, and verifies
/// the graph survives the round trip.
///
/// Usage: wiki_dump_tool [output.xml]   (default /tmp/wqe_dump.xml)

#include <fstream>
#include <iostream>

#include "common/macros.h"
#include "graph/cycle_metrics.h"
#include "wiki/dump.h"
#include "wiki/synthetic.h"

using namespace wqe;

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "/tmp/wqe_dump.xml";

  wiki::SyntheticWikipediaOptions options;
  options.num_domains = 16;
  auto wiki = wiki::GenerateSyntheticWikipedia(options);
  WQE_CHECK_OK(wiki.status());
  std::cout << "generated: " << wiki->kb.num_articles() << " articles, "
            << wiki->kb.num_categories() << " categories, "
            << wiki->kb.num_redirects() << " redirects, "
            << wiki->kb.csr().num_edges() << " edges\n";
  std::cout << "reciprocal link-pair rate: "
            << graph::ReciprocalLinkRate(wiki->kb.csr())
            << " (Wikipedia per the paper: 0.1147)\n";

  // Export.
  std::string dump = wiki::WriteDump(wiki->kb);
  {
    std::ofstream out(path, std::ios::binary);
    WQE_CHECK(out.good());
    out << dump;
  }
  std::cout << "wrote " << dump.size() << " bytes of MediaWiki XML to "
            << path << "\n";

  // Import.
  std::ifstream in(path, std::ios::binary);
  WQE_CHECK(in.good());
  std::string loaded((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  wiki::DumpImportStats stats;
  auto kb2 = wiki::ParseDump(loaded, &stats);
  WQE_CHECK_OK(kb2.status());

  std::cout << "re-imported: " << stats.pages << " pages → "
            << stats.articles << " articles, " << stats.categories
            << " categories, " << stats.redirects << " redirects, "
            << stats.links << " links, " << stats.belongs << " belongs, "
            << stats.inside << " inside (" << stats.dangling_links
            << " dangling)\n";

  WQE_CHECK(kb2->num_articles() == wiki->kb.num_articles());
  WQE_CHECK(kb2->csr().num_edges() == wiki->kb.csr().num_edges());
  std::cout << "round trip OK: graphs match.\n";
  return 0;
}
