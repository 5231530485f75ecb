#include "clef/track_generator.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "clef/image_metadata.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace wqe::clef {

namespace {

using wiki::KnowledgeBase;
using graph::NodeId;

/// Relevant documents per topic: uniform in [min, max].
constexpr uint32_t kMinRelevantDocs = 25;
constexpr uint32_t kMaxRelevantDocs = 40;

/// Distractor documents per topic.
constexpr uint32_t kDistractorsPerTopic = 24;

/// Fraction of relevant documents that are "core" documents (the rest
/// are vocabulary-mismatch tail documents).
constexpr double kCoreDocFraction = 0.45;

/// Probability a relevant document mentions a query title verbatim.
/// High enough that the unexpanded query has non-trivial precision —
/// keeping per-cycle contributions (Figures 5/9) in the paper's range
/// rather than exploding against a near-zero baseline.
constexpr double kQueryTitleInCoreDocProb = 0.4;
constexpr double kQueryTitleInTailDocProb = 0.15;

/// Probability a mention uses a redirect alias instead of the main
/// title (exercises the synonym-linking path).
constexpr double kAliasMentionProb = 0.20;

/// Probability a relevant document also mentions a weak decoy.
constexpr double kWeakInRelevantProb = 0.30;

/// Probability a relevant document mentions one article from a *foreign*
/// domain.  Such articles enter L(q.D) and often X(q), but their
/// categories do not connect to the topic domain — producing the
/// disconnected satellite components the paper observes in query graphs
/// (Figure 3, Table 3's %size < 1).
constexpr double kForeignMentionProb = 0.25;

/// Strata sizes.
constexpr uint32_t kMaxCoreArticles = 8;
constexpr uint32_t kMaxPeripheralArticles = 14;
constexpr uint32_t kMaxWeakArticles = 4;

/// Generic filler vocabulary; deliberately disjoint from the knowledge
/// base's title vocabulary so filler never entity-links.
const char* const kFiller[] = {
    "photograph", "view",  "image",   "scene",   "detail",  "panorama",
    "close-up",   "shot",  "morning", "evening", "sunny",   "cloudy",
    "beautiful",  "quiet", "crowded", "famous",  "typical", "unusual",
};
constexpr size_t kNumFiller = sizeof(kFiller) / sizeof(kFiller[0]);

const char* const kConnectors[] = {"near the", "beside the", "with a",
                                   "under the", "showing the", "behind the"};
constexpr size_t kNumConnectors = 6;

std::string Filler(Rng& rng) { return kFiller[rng.Uniform(kNumFiller)]; }

/// Topic-local context carried through document generation.
struct TopicPlan {
  uint32_t domain = 0;
  std::vector<NodeId> query_articles;
  std::vector<NodeId> core;
  std::vector<NodeId> peripheral;
  std::vector<NodeId> weak;
  /// All good expansion candidates with their structural affinity to the
  /// query articles (descending).  Mention sampling is weighted by this
  /// score, so structurally tighter articles (mutual links, shared
  /// categories → denser cycles) are mentioned more often in relevant
  /// documents — the correlation the paper observes on real Wikipedia.
  std::vector<std::pair<NodeId, double>> good_scored;
};

/// Returns the display title of `article`, or (with probability
/// `alias_prob`) the display title of one of its redirect aliases.
std::string MentionTitle(const KnowledgeBase& kb, NodeId article, Rng& rng,
                         double alias_prob) {
  if (rng.Bernoulli(alias_prob)) {
    std::vector<NodeId> aliases = kb.RedirectsOf(article);
    if (!aliases.empty()) {
      return std::string(kb.display_title(
          aliases[rng.Uniform(static_cast<uint32_t>(aliases.size()))]));
    }
  }
  return std::string(kb.display_title(article));
}

/// Builds a sentence interleaving the given mention phrases with filler.
std::string BuildSentence(const std::vector<std::string>& mentions,
                          Rng& rng) {
  std::string out = "A " + Filler(rng) + " of the";
  for (size_t i = 0; i < mentions.size(); ++i) {
    if (i > 0) {
      out += " ";
      out += kConnectors[rng.Uniform(kNumConnectors)];
    }
    out += " " + mentions[i];
  }
  out += " on a " + Filler(rng) + " day.";
  return out;
}

/// Foreign-language gibberish mentioning *other-domain* titles; §2.1 must
/// ignore it.
std::string ForeignText(const wiki::SyntheticWikipedia& wiki, uint32_t domain,
                        Rng& rng) {
  const auto& kb = wiki.kb;
  uint32_t num_domains =
      static_cast<uint32_t>(wiki.domain_articles.size());
  uint32_t other = rng.Uniform(num_domains);
  if (other == domain) other = (other + 1) % num_domains;
  const auto& articles = wiki.domain_articles[other];
  NodeId a = articles[rng.Uniform(static_cast<uint32_t>(articles.size()))];
  return "Ein Bild von " + std::string(kb.display_title(a)) + " im Sommer.";
}

bool Contains(const std::vector<NodeId>& v, NodeId x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// Classifies the domain's articles into core / peripheral / weak strata
/// relative to the query articles.
void ClassifyStrata(const wiki::SyntheticWikipedia& wiki, TopicPlan* plan) {
  const KnowledgeBase& kb = wiki.kb;
  const auto& candidates = wiki.domain_articles[plan->domain];

  // Pre-compute category sets of the query articles.
  std::unordered_set<NodeId> query_cats;
  for (NodeId q : plan->query_articles) {
    for (NodeId c : kb.CategoriesOf(q)) query_cats.insert(c);
  }

  struct Scored {
    NodeId article;
    double score;
  };
  std::vector<Scored> scored;
  for (NodeId c : candidates) {
    if (Contains(plan->query_articles, c)) continue;
    uint32_t mutual_count = 0;
    bool single = false, shared_cat = false;
    for (NodeId q : plan->query_articles) {
      bool fwd = kb.csr().HasEdge(q, c, graph::EdgeKind::kLink);
      bool bwd = kb.csr().HasEdge(c, q, graph::EdgeKind::kLink);
      if (fwd && bwd) ++mutual_count;
      if (fwd || bwd) single = true;
    }
    for (NodeId cat : kb.CategoriesOf(c)) {
      if (query_cats.count(cat)) {
        shared_cat = true;
        break;
      }
    }
    // Affinity grows with the number of *mutual* query partners: an
    // article reciprocally linked with several query entities (the third
    // member of a planted triad) is the topic's defining co-subject.
    double score = mutual_count > 0
                       ? 3.0 * static_cast<double>(mutual_count)
                       : (single && shared_cat ? 2.0
                          : single             ? 1.5
                          : shared_cat         ? 1.0
                                               : 0.0);
    scored.push_back({c, score});
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     return a.score > b.score;
                   });

  for (const Scored& s : scored) {
    if (s.score >= 3.0 && plan->core.size() < kMaxCoreArticles) {
      plan->core.push_back(s.article);
      plan->good_scored.emplace_back(s.article, s.score);
    } else if (s.score >= 2.0 && s.score < 3.0 &&
               plan->peripheral.size() < kMaxPeripheralArticles) {
      plan->peripheral.push_back(s.article);
      plan->good_scored.emplace_back(s.article, s.score);
    }
  }
  // Weak decoys: the *least* related unassigned candidates (scored is
  // sorted descending, so walk from the back).
  for (auto it = scored.rbegin();
       it != scored.rend() && plan->weak.size() < kMaxWeakArticles;
       ++it) {
    if (it->score <= 1.5 && !Contains(plan->core, it->article) &&
        !Contains(plan->peripheral, it->article)) {
      plan->weak.push_back(it->article);
    }
  }
  // Guarantee at least one expansion article of each flavour: promote the
  // best-scored unassigned leftovers when a stratum comes up empty.
  auto assigned = [&](NodeId a) {
    return Contains(plan->core, a) || Contains(plan->peripheral, a) ||
           Contains(plan->weak, a);
  };
  if (plan->core.empty()) {
    for (const Scored& s : scored) {
      if (s.score >= 1.5 && !assigned(s.article)) {
        plan->core.push_back(s.article);
        plan->good_scored.emplace_back(s.article, s.score);
        break;
      }
    }
  }
  if (plan->peripheral.empty()) {
    for (const Scored& s : scored) {
      if (!assigned(s.article)) {
        plan->peripheral.push_back(s.article);
        plan->good_scored.emplace_back(s.article, std::max(s.score, 0.5));
        break;
      }
    }
  }
}

/// Picks `count` mention titles from `articles` without replacement.
std::vector<std::string> PickMentions(const KnowledgeBase& kb,
                                      const std::vector<NodeId>& articles,
                                      uint32_t count, Rng& rng,
                                      double alias_prob) {
  std::vector<std::string> out;
  if (articles.empty() || count == 0) return out;
  std::vector<uint32_t> idx = rng.SampleWithoutReplacement(
      static_cast<uint32_t>(articles.size()),
      std::min<uint32_t>(count, static_cast<uint32_t>(articles.size())));
  for (uint32_t i : idx) {
    out.push_back(MentionTitle(kb, articles[i], rng, alias_prob));
  }
  return out;
}

/// Picks `count` mention titles from scored candidates without
/// replacement, weighted by affinity.  `favor_high` biases toward high
/// affinity (core documents); otherwise toward low affinity (the
/// vocabulary-mismatch tail documents that long cycles recover).
std::vector<std::string> PickWeightedMentions(
    const KnowledgeBase& kb,
    const std::vector<std::pair<NodeId, double>>& scored, uint32_t count,
    bool favor_high, Rng& rng, double alias_prob) {
  std::vector<std::string> out;
  if (scored.empty() || count == 0) return out;
  double max_score = 0.0;
  for (const auto& [a, s] : scored) max_score = std::max(max_score, s);
  std::vector<NodeId> pool;
  std::vector<double> weights;
  for (const auto& [a, s] : scored) {
    pool.push_back(a);
    // Exponential weighting: the mutual-link partners (affinity 3) become
    // the dominant co-subjects of the topic, as the paper's length-2-cycle
    // articles are on real Wikipedia; low-affinity articles form the long
    // tail that only the vocabulary-mismatch documents mention.
    double w = favor_high ? std::exp(s) : std::exp(max_score - s);
    weights.push_back(std::max(w, 1e-6));
  }
  uint32_t take = std::min<uint32_t>(count,
                                     static_cast<uint32_t>(pool.size()));
  for (uint32_t k = 0; k < take; ++k) {
    size_t pick = rng.WeightedChoice(weights);
    out.push_back(MentionTitle(kb, pool[pick], rng, alias_prob));
    pool.erase(pool.begin() + static_cast<ptrdiff_t>(pick));
    weights.erase(weights.begin() + static_cast<ptrdiff_t>(pick));
  }
  return out;
}

/// Assembles one metadata document.
ImageMetadata MakeDocument(uint32_t doc_id,
                           const std::vector<std::string>& name_mentions,
                           const std::vector<std::string>& desc_mentions,
                           const std::vector<std::string>& caption_mentions,
                           const wiki::SyntheticWikipedia& wiki,
                           uint32_t domain, Rng& rng) {
  ImageMetadata meta;
  meta.id = doc_id;
  meta.file = "images/" + std::to_string(doc_id % 10) + "/" +
              std::to_string(doc_id) + ".jpg";
  std::string base_name;
  for (const std::string& m : name_mentions) {
    if (!base_name.empty()) base_name += " ";
    base_name += m;
  }
  if (base_name.empty()) base_name = Filler(rng);
  meta.name = base_name + " " + std::to_string(doc_id) + ".jpg";

  LanguageSection en;
  en.lang = "en";
  en.description = BuildSentence(desc_mentions, rng);
  for (const std::string& m : caption_mentions) {
    ImageCaption cap;
    cap.article_ref =
        "text/en/" + std::to_string(rng.Uniform(9) + 1) + "/" +
        std::to_string(100000 + rng.Uniform(900000));
    cap.text = "The " + m + " " + Filler(rng) + ".";
    en.captions.push_back(std::move(cap));
  }
  meta.sections.push_back(std::move(en));

  LanguageSection de;
  de.lang = "de";
  de.description = ForeignText(wiki, domain, rng);
  meta.sections.push_back(std::move(de));

  meta.general_comment =
      "({{Information |Description= " + BuildSentence(desc_mentions, rng) +
      " |Source= Flickr |Date= 1/1/" + std::to_string(80 + rng.Uniform(20)) +
      " |Author= JA |Permission= GFDL |other_versions= }})";
  meta.license = "GFDL";
  return meta;
}

}  // namespace

Result<Track> GenerateTrack(const wiki::SyntheticWikipedia& wiki,
                            const TrackGeneratorOptions& options) {
  const KnowledgeBase& kb = wiki.kb;
  uint32_t num_domains = static_cast<uint32_t>(wiki.domain_articles.size());
  if (num_domains == 0) {
    return Status::InvalidArgument("knowledge base has no domains");
  }
  if (options.num_topics == 0) {
    return Status::InvalidArgument("num_topics must be positive");
  }

  Track track;
  Rng rng(options.seed);
  uint32_t next_doc_id = 10000;

  auto add_document = [&track](const ImageMetadata& meta) {
    TrackDocument doc;
    doc.name = std::to_string(meta.id) + ".xml";
    doc.xml = meta.ToXml();
    track.documents.push_back(std::move(doc));
    return track.documents.back().name;
  };

  for (uint32_t t = 0; t < options.num_topics; ++t) {
    Rng topic_rng = rng.Fork(t + 1);
    TopicPlan plan;
    plan.domain = t % num_domains;
    const auto& articles = wiki.domain_articles[plan.domain];

    // Query articles: prefer a hub pair sharing a common *mutual* link
    // partner (the user names two aspects of a tight topic; the third
    // triad member becomes the prime expansion feature), falling back to
    // random hubs. One extra hub is added a third of the time.
    uint32_t hub_pool = std::min<uint32_t>(
        6, static_cast<uint32_t>(articles.size()));
    bool found_pair = false;
    for (uint32_t i = 0; i < hub_pool && !found_pair; ++i) {
      for (uint32_t j = i + 1; j < hub_pool && !found_pair; ++j) {
        for (uint32_t k = 0; k < hub_pool; ++k) {
          if (k == i || k == j) continue;
          auto mutual = [&](NodeId a, NodeId b) {
            return kb.csr().HasEdge(a, b, graph::EdgeKind::kLink) &&
                   kb.csr().HasEdge(b, a, graph::EdgeKind::kLink);
          };
          if (mutual(articles[i], articles[k]) &&
              mutual(articles[j], articles[k])) {
            plan.query_articles = {articles[i], articles[j]};
            found_pair = true;
            break;
          }
        }
      }
    }
    if (!found_pair) {
      uint32_t num_query = 1 + topic_rng.Uniform(2);
      for (uint32_t h : topic_rng.SampleWithoutReplacement(
               hub_pool, std::min(num_query, hub_pool))) {
        plan.query_articles.push_back(articles[h]);
      }
    } else if (topic_rng.Bernoulli(1.0 / 3.0) && hub_pool > 2) {
      // Occasionally a third, unrelated keyword.
      for (uint32_t attempt = 0; attempt < 8; ++attempt) {
        NodeId extra = articles[topic_rng.Uniform(hub_pool)];
        if (!Contains(plan.query_articles, extra)) {
          plan.query_articles.push_back(extra);
          break;
        }
      }
    }

    ClassifyStrata(wiki, &plan);

    // Keyword string, e.g. "gondola in venice".
    Topic topic;
    topic.id = 70 + t;
    topic.domain = plan.domain;
    topic.query_articles = plan.query_articles;
    {
      // Connectors ("in") between every pair keep adjacent titles from
      // merging into a longer accidental title match during linking.
      std::vector<std::string> words;
      for (size_t i = 0; i < plan.query_articles.size(); ++i) {
        if (i > 0) words.push_back("in");
        words.push_back(ToLower(kb.display_title(plan.query_articles[i])));
      }
      topic.keywords = Join(words, " ");
    }
    topic.planted_good = plan.core;
    topic.planted_good.insert(topic.planted_good.end(),
                              plan.peripheral.begin(), plan.peripheral.end());
    topic.planted_weak = plan.weak;

    // --- Relevant documents. ---
    uint32_t num_relevant = static_cast<uint32_t>(topic_rng.UniformRange(
        kMinRelevantDocs, kMaxRelevantDocs));
    for (uint32_t d = 0; d < num_relevant; ++d) {
      bool core_doc =
          static_cast<double>(d) <
          kCoreDocFraction * static_cast<double>(num_relevant);

      std::vector<std::string> desc;
      std::vector<std::string> captions;
      std::vector<std::string> name_mentions;
      double ap = kAliasMentionProb;
      // Each relevant document is *about one* good article (its primary
      // subject, mentioned in the name, description and caption).  One
      // subject per document keeps per-title coverage low, so assembling a
      // high-precision result set requires a sizable, diverse X(q) — as
      // the paper's expansion ratios (median 4.5, max 176) indicate.
      if (!plan.good_scored.empty()) {
        std::vector<std::string> primary = PickWeightedMentions(
            kb, plan.good_scored, 1, /*favor_high=*/core_doc, topic_rng, ap);
        desc = primary;
        captions = primary;
        name_mentions = primary;
      }
      double query_prob = core_doc ? kQueryTitleInCoreDocProb
                                   : kQueryTitleInTailDocProb;
      if (topic_rng.Bernoulli(query_prob)) {
        // A document genuinely about the query subject names it both in
        // the description and in the file name (higher phrase tf than a
        // distractor's single passing mention).
        std::string title = MentionTitle(
            kb,
            plan.query_articles[topic_rng.Uniform(static_cast<uint32_t>(
                plan.query_articles.size()))],
            topic_rng, ap);
        desc.push_back(title);
        name_mentions.push_back(title);
      }
      if (topic_rng.Bernoulli(kWeakInRelevantProb) &&
          !plan.weak.empty()) {
        desc.push_back(MentionTitle(
            kb,
            plan.weak[topic_rng.Uniform(
                static_cast<uint32_t>(plan.weak.size()))],
            topic_rng, 0.0));
      }
      // Cross-domain mention: puts a foreign article into L(q.D), which
      // becomes a disconnected satellite in the query graph.
      if (topic_rng.Bernoulli(kForeignMentionProb) &&
          num_domains > 1) {
        uint32_t other = topic_rng.Uniform(num_domains);
        if (other == plan.domain) other = (other + 1) % num_domains;
        const auto& others = wiki.domain_articles[other];
        desc.push_back(MentionTitle(
            kb, others[topic_rng.Uniform(static_cast<uint32_t>(
                    others.size()))],
            topic_rng, 0.0));
      }
      if (desc.empty()) desc.push_back(Filler(topic_rng));

      ImageMetadata meta = MakeDocument(next_doc_id++, name_mentions, desc,
                                        captions, wiki, plan.domain,
                                        topic_rng);
      topic.relevant.push_back(add_document(meta));
    }

    // --- Distractor documents: exact query phrases in foreign contexts. ---
    for (uint32_t d = 0; d < kDistractorsPerTopic; ++d) {
      std::vector<std::string> desc;
      // The query phrase itself — in the description AND the file name,
      // exactly like a genuinely relevant document (this vocabulary
      // collision is what makes unexpanded queries imprecise).
      std::string query_phrase = ToLower(kb.display_title(
          plan.query_articles[topic_rng.Uniform(
              static_cast<uint32_t>(plan.query_articles.size()))]));
      desc.push_back(query_phrase);
      std::vector<std::string> name_mentions = {query_phrase};
      // Weak decoys appear here prominently.
      if (!plan.weak.empty()) {
        auto weak_mentions =
            PickMentions(kb, plan.weak, 1 + topic_rng.Uniform(2), topic_rng,
                         0.0);
        desc.insert(desc.end(), weak_mentions.begin(), weak_mentions.end());
      }
      // Loosely-related vocabulary misused out of context: distractors
      // often carry *peripheral* terms, so distant expansion features are
      // individually noisier than the tight mutual-link partners — the
      // paper's reason why short cycles beat long ones on early precision.
      if (topic_rng.Bernoulli(0.5) && !plan.good_scored.empty()) {
        auto peripheral_mentions = PickWeightedMentions(
            kb, plan.good_scored, 1, /*favor_high=*/false, topic_rng, 0.0);
        desc.insert(desc.end(), peripheral_mentions.begin(),
                    peripheral_mentions.end());
      }
      // Foreign-domain content.
      uint32_t other = topic_rng.Uniform(num_domains);
      if (other == plan.domain) other = (other + 1) % num_domains;
      const auto& others = wiki.domain_articles[other];
      desc.emplace_back(kb.display_title(
          others[topic_rng.Uniform(static_cast<uint32_t>(others.size()))]));

      ImageMetadata meta = MakeDocument(next_doc_id++, name_mentions, desc,
                                        {}, wiki, plan.domain, topic_rng);
      add_document(meta);
    }

    track.topics.push_back(std::move(topic));
  }

  // --- Background documents: mentions spread over 2–3 domains so no
  // single topic's vocabulary dominates any background document. ---
  Rng bg_rng = rng.Fork(0xBACC);
  for (uint32_t b = 0; b < options.background_docs; ++b) {
    uint32_t primary = bg_rng.Uniform(num_domains);
    std::vector<std::string> desc;
    uint32_t mentions = 2 + bg_rng.Uniform(3);
    for (uint32_t m = 0; m < mentions; ++m) {
      uint32_t domain = m == 0 ? primary : bg_rng.Uniform(num_domains);
      const auto& articles = wiki.domain_articles[domain];
      auto picked = PickMentions(kb, articles, 1, bg_rng, 0.1);
      desc.insert(desc.end(), picked.begin(), picked.end());
    }
    ImageMetadata meta =
        MakeDocument(next_doc_id++, {}, desc, {}, wiki, primary, bg_rng);
    add_document(meta);
  }

  WQE_LOG(Debug) << "track: " << track.documents.size() << " documents, "
                 << track.topics.size() << " topics";
  return track;
}

}  // namespace wqe::clef
