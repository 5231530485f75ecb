#include "wiki/synthetic.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "common/macros.h"
#include "wiki/wordlist.h"

namespace wqe::wiki {

namespace {

/// Words per domain vocabulary chunk.
constexpr size_t kWordsPerDomain = 8;

/// Articles per domain: uniform in [min, max].
constexpr uint32_t kMinArticlesPerDomain = 28;
constexpr uint32_t kMaxArticlesPerDomain = 56;

/// Categories per domain: uniform in [min, max]; arranged as a tree.
/// Generous counts keep query graphs category-dominated, as the paper
/// observes on real Wikipedia (Table 3: ~78% categories).
constexpr uint32_t kMinCategoriesPerDomain = 16;
constexpr uint32_t kMaxCategoriesPerDomain = 28;

/// Top-level categories shared by all domains.
constexpr uint32_t kNumRootCategories = 5;

/// Out-links per article: 2 + Zipf(kLinkZipfN, kLinkZipfS).  The
/// exponent is calibrated against the *corrected* rejection-inversion
/// sampler (p(k) ∝ 1/(k+1)^s): s = 2.4 keeps the mean extra fanout ~0.6
/// so tail articles stay link-sparse and the planted hub structure —
/// not background link noise — dominates short cycles, as on real
/// Wikipedia.
constexpr uint32_t kLinkZipfN = 9;
constexpr double kLinkZipfS = 2.4;

/// Popularity-bias exponent for link targets: half of all links aim at
/// a Zipf(num_articles, kLinkTargetS) rank, concentrating in-links on
/// the domain hubs.
constexpr double kLinkTargetS = 1.6;

/// Probability that an ordinary link is reciprocated (creates a
/// length-2 cycle).  Together with the planted hub partnerships below
/// this calibrates the global reciprocal-pair rate to the paper's
/// measured 11.47%.
constexpr double kReciprocalLinkProb = 0.02;

/// Mutual-link partners planted per hub article (hubs are the first
/// `kHubCount` articles of a domain).  Real Wikipedia's reciprocal pairs
/// concentrate among related prominent articles ("Venice" ↔ "Grand
/// Canal"), which is what makes length-2 cycles informative.
constexpr uint32_t kHubMutualPartners = 1;
constexpr uint32_t kHubCount = 8;

/// Probability an article gets one extra cross-domain link.
constexpr double kCrossDomainLinkProb = 0.08;

/// Probability an article belongs to a category of another domain.
constexpr double kCrossDomainCategoryProb = 0.04;

/// Extra categories per article beyond the mandatory one:
/// article belongs to 1 + Binomial(4, kExtraCategoryProb) categories.
constexpr double kExtraCategoryProb = 0.5;

/// Probability an article has ≥1 redirect alias (then 1–2 aliases).
constexpr double kRedirectProb = 0.30;

/// Composes an article title; `rank` steers hubs (low ranks) to short,
/// iconic theme-word titles.  Tail articles draw mostly from the domain's
/// *extra* vocabulary (pseudo-words disjoint from every theme word), so
/// that tail titles do not flood documents with hub-title tokens — hub
/// words in free text should mean the hub was actually mentioned.
std::string ComposeTitle(const std::vector<std::string>& theme,
                         const std::vector<std::string>& extra, uint32_t rank,
                         Rng& rng) {
  if (rank < theme.size()) {
    return theme[rank];  // hubs get the bare theme words
  }
  // Tail articles: 2–3 word compounds drawn purely from the extra
  // vocabulary — a theme word appearing in free text must mean the hub
  // itself was mentioned, never a tail title that happens to contain it.
  uint32_t n = 2 + (rng.Bernoulli(0.35) ? 1 : 0);
  std::string title;
  std::string prev;
  for (uint32_t i = 0; i < n; ++i) {
    const std::string& w =
        extra[rng.Uniform(static_cast<uint32_t>(extra.size()))];
    if (w == prev) continue;
    prev = w;
    if (!title.empty()) title += " ";
    title += w;
  }
  if (title.empty()) {
    title = extra[rng.Uniform(static_cast<uint32_t>(extra.size()))];
  }
  return title;
}

std::string ComposeCategoryName(const std::vector<std::string>& words,
                                uint32_t index, Rng& rng) {
  static const char* const kPatterns[] = {"history of", "geography of",
                                          "culture of", "people of",
                                          "types of", "landmarks of"};
  if (index == 0) return words[0];  // domain root category = theme word
  std::string pattern = kPatterns[rng.Uniform(6)];
  return pattern + " " + words[index % words.size()];
}

}  // namespace

Result<SyntheticWikipedia> GenerateSyntheticWikipedia(
    const SyntheticWikipediaOptions& options) {
  if (options.num_domains == 0) {
    return Status::InvalidArgument("num_domains must be positive");
  }

  SyntheticWikipedia wiki;
  Rng rng(options.seed);

  // --- Top-level categories shared across domains. ---
  std::vector<NodeId> roots;
  for (uint32_t r = 0; r < kNumRootCategories; ++r) {
    WQE_ASSIGN_OR_RETURN(
        NodeId c, wiki.kb.AddCategory("main topic " + std::to_string(r + 1)));
    roots.push_back(c);
  }

  wiki.domain_articles.resize(options.num_domains);
  wiki.domain_categories.resize(options.num_domains);

  for (uint32_t d = 0; d < options.num_domains; ++d) {
    Rng domain_rng = rng.Fork(d + 1);
    std::vector<std::string> words =
        VocabularySlice(static_cast<size_t>(d) * kWordsPerDomain,
                        kWordsPerDomain);
    // Extra vocabulary: allocated after every domain's theme chunk so the
    // two pools never overlap.
    std::vector<std::string> extra = VocabularySlice(
        (static_cast<size_t>(options.num_domains) + d) * kWordsPerDomain,
        kWordsPerDomain);

    // --- Categories: a tree rooted at the domain root category. ---
    uint32_t num_cats = static_cast<uint32_t>(domain_rng.UniformRange(
        kMinCategoriesPerDomain, kMaxCategoriesPerDomain));
    std::vector<NodeId>& cats = wiki.domain_categories[d];
    for (uint32_t c = 0; c < num_cats; ++c) {
      std::string name = ComposeCategoryName(words, c, domain_rng);
      auto added = wiki.kb.AddCategory(name);
      if (!added.ok()) {
        // Name collision across domains (patterns reuse words): qualify it.
        added = wiki.kb.AddCategory(name + " (" + words[0] + ")");
      }
      if (!added.ok()) continue;  // give up on this category slot
      cats.push_back(*added);
    }
    if (cats.empty()) {
      return Status::Internal("domain ", d, " ended up with no categories");
    }
    // Tree edges: category c hangs under a previous category (tree-like,
    // exactly one parent, no cycles in the pure category graph).
    WQE_RETURN_NOT_OK(wiki.kb.AddInside(
        cats[0], roots[domain_rng.Uniform(
                      static_cast<uint32_t>(roots.size()))]));
    for (uint32_t c = 1; c < cats.size(); ++c) {
      uint32_t parent = domain_rng.Uniform(c);  // any earlier category
      WQE_RETURN_NOT_OK(wiki.kb.AddInside(cats[c], cats[parent]));
    }

    // --- Articles. ---
    uint32_t num_articles = static_cast<uint32_t>(domain_rng.UniformRange(
        kMinArticlesPerDomain, kMaxArticlesPerDomain));
    std::vector<NodeId>& articles = wiki.domain_articles[d];
    for (uint32_t a = 0; a < num_articles; ++a) {
      std::string title = ComposeTitle(words, extra, a, domain_rng);
      auto added = wiki.kb.AddArticle(title);
      for (int attempt = 2; !added.ok() && attempt <= 6; ++attempt) {
        added = wiki.kb.AddArticle(title + " " +
                                   std::to_string(1700 + domain_rng.Uniform(300)));
      }
      if (!added.ok()) continue;
      articles.push_back(*added);
    }
    if (articles.size() < 3) {
      return Status::Internal("domain ", d, " has fewer than 3 articles");
    }

    // --- Category memberships: 1 + Binomial(2, p) categories each. ---
    for (NodeId a : articles) {
      uint32_t primary = domain_rng.Zipf(
          static_cast<uint32_t>(cats.size()), 1.1);
      WQE_RETURN_NOT_OK(wiki.kb.AddBelongs(a, cats[primary]));
      for (int extra = 0; extra < 4; ++extra) {
        if (!domain_rng.Bernoulli(kExtraCategoryProb)) continue;
        uint32_t c = domain_rng.Uniform(static_cast<uint32_t>(cats.size()));
        if (c != primary) {
          Status st = wiki.kb.AddBelongs(a, cats[c]);
          if (!st.ok() && !st.IsAlreadyExists()) return st;
        }
      }
    }
  }

  // --- Links (second pass so cross-domain targets exist). ---
  Rng link_rng = rng.Fork(0x11111);
  for (uint32_t d = 0; d < options.num_domains; ++d) {
    const auto& articles = wiki.domain_articles[d];

    // Planted hub partnerships.  The first three hubs form a mutual-link
    // *triad* — the kind of tightly reciprocal cluster ("Venice" ↔ "Grand
    // Canal" ↔ "Gondola") whose members are each other's strongest
    // expansion features and whose pairs close length-2 cycles.  Remaining
    // hubs get one mutual partner each.
    uint32_t hubs = std::min<uint32_t>(
        kHubCount, static_cast<uint32_t>(articles.size()));
    auto add_mutual = [&](NodeId a, NodeId b) -> Status {
      Status fwd = wiki.kb.AddLink(a, b);
      if (!fwd.ok() && !fwd.IsAlreadyExists()) return fwd;
      Status bwd = wiki.kb.AddLink(b, a);
      if (!bwd.ok() && !bwd.IsAlreadyExists()) return bwd;
      return Status::OK();
    };
    if (hubs >= 3) {
      WQE_RETURN_NOT_OK(add_mutual(articles[0], articles[1]));
      WQE_RETURN_NOT_OK(add_mutual(articles[1], articles[2]));
      WQE_RETURN_NOT_OK(add_mutual(articles[0], articles[2]));
    }
    if (hubs >= 2) {
      for (uint32_t h = 3; h < hubs; ++h) {
        for (uint32_t p = 0; p < kHubMutualPartners; ++p) {
          uint32_t other = link_rng.Uniform(hubs);
          if (other == h) continue;
          WQE_RETURN_NOT_OK(add_mutual(articles[h], articles[other]));
        }
      }
    }
    for (size_t idx = 0; idx < articles.size(); ++idx) {
      NodeId src = articles[idx];
      // Hubs are long, link-rich articles (dozens of outgoing links on
      // real Wikipedia) — which is precisely why naive per-link expansion
      // drowns in weakly related neighbors.
      uint32_t base_fanout = idx < hubs ? 8 : 2;
      uint32_t fanout = base_fanout + link_rng.Zipf(kLinkZipfN, kLinkZipfS);
      for (uint32_t l = 0; l < fanout; ++l) {
        // Half the links are popularity-biased (hubs attract most links);
        // the rest land anywhere — article link lists mix prominent
        // subjects with loosely related mentions.
        uint32_t target_rank =
            link_rng.Bernoulli(0.5)
                ? link_rng.Zipf(static_cast<uint32_t>(articles.size()),
                                kLinkTargetS)
                : link_rng.Uniform(static_cast<uint32_t>(articles.size()));
        NodeId dst = articles[target_rank];
        if (dst == src) continue;
        Status st = wiki.kb.AddLink(src, dst);
        if (!st.ok() && !st.IsAlreadyExists()) return st;
        if (st.ok() && link_rng.Bernoulli(kReciprocalLinkProb)) {
          Status back = wiki.kb.AddLink(dst, src);
          if (!back.ok() && !back.IsAlreadyExists()) return back;
        }
      }
      if (link_rng.Bernoulli(kCrossDomainLinkProb) &&
          options.num_domains > 1) {
        uint32_t other;
        do {
          other = link_rng.Uniform(options.num_domains);
        } while (other == d);
        const auto& others = wiki.domain_articles[other];
        NodeId dst = others[link_rng.Zipf(
            static_cast<uint32_t>(others.size()), kLinkTargetS)];
        Status st = wiki.kb.AddLink(src, dst);
        if (!st.ok() && !st.IsAlreadyExists()) return st;
      }
      // Rare cross-domain category membership.
      if (link_rng.Bernoulli(kCrossDomainCategoryProb) &&
          options.num_domains > 1) {
        uint32_t other;
        do {
          other = link_rng.Uniform(options.num_domains);
        } while (other == d);
        const auto& cats = wiki.domain_categories[other];
        Status st = wiki.kb.AddBelongs(
            src, cats[link_rng.Uniform(static_cast<uint32_t>(cats.size()))]);
        if (!st.ok() && !st.IsAlreadyExists()) return st;
      }
    }
  }

  // --- Redirects (aliases). ---
  Rng redirect_rng = rng.Fork(0x22222);
  for (uint32_t d = 0; d < options.num_domains; ++d) {
    std::vector<std::string> words =
        VocabularySlice(static_cast<size_t>(d) * kWordsPerDomain,
                        kWordsPerDomain);
    for (NodeId a : wiki.domain_articles[d]) {
      if (!redirect_rng.Bernoulli(kRedirectProb)) continue;
      uint32_t aliases = 1 + (redirect_rng.Bernoulli(0.25) ? 1 : 0);
      for (uint32_t k = 0; k < aliases; ++k) {
        // Alias styles: "old <title>", "<title> the <word>", "<w> <title>".
        const std::string main_title(wiki.kb.display_title(a));
        std::string alias;
        switch (redirect_rng.Uniform(3)) {
          case 0:
            alias = "old " + main_title;
            break;
          case 1:
            alias = main_title + " the " +
                    words[redirect_rng.Uniform(kWordsPerDomain)];
            break;
          default:
            alias = words[redirect_rng.Uniform(kWordsPerDomain)] + " " +
                    main_title;
            break;
        }
        auto added = wiki.kb.AddRedirect(alias, a);
        if (!added.ok()) continue;  // alias collides with an existing title
      }
    }
  }

  const graph::CsrGraph& csr = wiki.kb.Freeze();
  WQE_RETURN_NOT_OK(wiki.kb.Validate());
  WQE_LOG(Debug) << "synthetic wikipedia: " << wiki.kb.num_articles()
                 << " articles, " << wiki.kb.num_categories()
                 << " categories, " << wiki.kb.num_redirects()
                 << " redirects, " << csr.num_edges() << " edges";
  return wiki;
}

}  // namespace wqe::wiki
