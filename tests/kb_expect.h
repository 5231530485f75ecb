#pragma once

/// \file kb_expect.h
/// \brief gtest assertion shared by the suites that rebuild a knowledge
/// base another way (dump round trip, snapshot load) and must get the
/// same one back.

#include <gtest/gtest.h>

#include <cstring>
#include <span>

#include "graph/csr.h"
#include "wiki/knowledge_base.h"

namespace wqe {

template <typename T>
void ExpectSpanEq(std::span<const T> expected, std::span<const T> actual,
                  const char* what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  if (!expected.empty()) {
    EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                          expected.size() * sizeof(T)),
              0)
        << what << " differs byte-wise";
  }
}

/// Every flat CSR array byte-identical, the per-kind counts equal, and
/// the entity counts, titles and display titles equal on every node.
inline void ExpectSameKb(const wiki::KnowledgeBase& expected,
                         const wiki::KnowledgeBase& actual) {
  const graph::CsrSections want = expected.csr().Sections();
  const graph::CsrSections got = actual.csr().Sections();
  ExpectSpanEq(want.kinds, got.kinds, "kinds");
  ExpectSpanEq(want.redirect_target, got.redirect_target, "redirect_target");
  ExpectSpanEq(want.out_offsets, got.out_offsets, "out_offsets");
  ExpectSpanEq(want.out_targets, got.out_targets, "out_targets");
  ExpectSpanEq(want.out_kinds, got.out_kinds, "out_kinds");
  ExpectSpanEq(want.in_offsets, got.in_offsets, "in_offsets");
  ExpectSpanEq(want.in_sources, got.in_sources, "in_sources");
  ExpectSpanEq(want.in_kinds, got.in_kinds, "in_kinds");
  ExpectSpanEq(want.und_offsets, got.und_offsets, "und_offsets");
  ExpectSpanEq(want.und_neighbors, got.und_neighbors, "und_neighbors");
  ExpectSpanEq(want.und_mult, got.und_mult, "und_mult");
  EXPECT_EQ(want.edge_kind_counts, got.edge_kind_counts);
  EXPECT_EQ(want.node_kind_counts, got.node_kind_counts);

  EXPECT_EQ(actual.num_articles(), expected.num_articles());
  EXPECT_EQ(actual.num_redirects(), expected.num_redirects());
  EXPECT_EQ(actual.num_categories(), expected.num_categories());
  const uint32_t n = expected.csr().num_nodes();
  ASSERT_EQ(actual.csr().num_nodes(), n);
  for (uint32_t u = 0; u < n; ++u) {
    ASSERT_EQ(actual.title(u), expected.title(u)) << "node " << u;
    ASSERT_EQ(actual.display_title(u), expected.display_title(u))
        << "node " << u;
  }
}

}  // namespace wqe
