// Dynamic DOM scenario (the paper's motivating application): a
// long-lived, frequently mutated document kept compressed at all
// times, recompressed automatically on the growth trigger — contrasted
// against the naive strategy of never recompressing.
//
// Simulates a feed page that continuously receives new items, expires
// old ones and retags entries, and prints the memory footprint
// (grammar edges) both strategies pay over time.

#include <cstdio>
#include <string>

#include "src/api/compressed_xml_tree.h"
#include "src/common/rng.h"

namespace {

slg::CompressedXmlTree MakeFeed(const slg::UpdateOptions& opts) {
  std::string xml = "<feed>";
  for (int i = 0; i < 300; ++i) {
    xml += "<item><title/><link/><summary/><published/></item>";
  }
  xml += "</feed>";
  return slg::CompressedXmlTree::FromXml(xml, {}, opts).take();
}

void Mutate(slg::CompressedXmlTree* doc, slg::Rng* rng) {
  uint64_t r = rng->Below(10);
  if (r < 6) {
    // New item at a random position among the first items.
    auto pos = doc->FindElement("item", 1 + static_cast<int64_t>(
                                                rng->Below(20)));
    if (pos.ok()) {
      slg::Status st = doc->InsertXmlBefore(
          pos.value(),
          "<item><title/><link/><summary/><published/></item>");
      SLG_CHECK(st.ok());
    }
  } else if (r < 8) {
    auto pos = doc->FindElement("item", 5);
    if (pos.ok()) SLG_CHECK(doc->Delete(pos.value()).ok());
  } else {
    auto pos =
        doc->FindElement("title", 1 + static_cast<int64_t>(rng->Below(50)));
    if (pos.ok()) SLG_CHECK(doc->Rename(pos.value(), "headline").ok());
  }
}

}  // namespace

int main() {
  slg::Rng rng_a(42);
  slg::Rng rng_b(42);

  slg::UpdateOptions naive_opts;  // never recompresses
  // Recompresses (localized GrammarRePair) once the updates since the
  // last repair added more than a quarter of the grammar's size, and
  // at least 10 of them happened — the service's merge trigger.
  slg::UpdateOptions managed_opts;
  managed_opts.growth_trigger = 0.25;
  managed_opts.min_checkpoint_ops = 10;

  slg::CompressedXmlTree naive = MakeFeed(naive_opts);
  slg::CompressedXmlTree managed = MakeFeed(managed_opts);

  std::printf("%8s  %14s  %16s\n", "updates", "naive edges",
              "managed edges");
  for (int batch = 0; batch <= 8; ++batch) {
    if (batch > 0) {
      for (int i = 0; i < 50; ++i) {
        Mutate(&naive, &rng_a);
        Mutate(&managed, &rng_b);
      }
    }
    std::printf("%8d  %14lld  %16lld\n", batch * 50,
                static_cast<long long>(naive.CompressedSize()),
                static_cast<long long>(managed.CompressedSize()));
  }
  std::printf(
      "\nThe managed document keeps its footprint near the optimum while\n"
      "staying compressed through every update; the naive one drifts up\n"
      "with the accumulated path-isolation debris (paper Fig. 4/5).\n");
  return 0;
}
