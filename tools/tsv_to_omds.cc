// Converts a domain TSV file (the documented adoption format; see
// custom_dataset example and README) into an OMDS file for the
// memory-mapped out-of-core data path. The TSV loader already builds the
// validated OMDS image; the tool writes it atomically, maps the result back
// and checks its bytes against the image.
//
//   ./tsv_to_omds --in=reviews.tsv --out=reviews.omds [--name=Books]
//
// The reverse direction needs no tool: LoadDomainOmds + SaveDomainTsv.

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/status.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/omds.h"

using namespace omnimatch;

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 1;
  std::string in_path = flags.GetString("in", "");
  std::string out_path = flags.GetString("out", "");
  std::string name = flags.GetString("name", "domain");
  if (in_path.empty() || out_path.empty()) {
    std::fprintf(stderr,
                 "usage: tsv_to_omds --in=reviews.tsv --out=reviews.omds "
                 "[--name=Books]\n");
    return 2;
  }

  auto fail = [](const Status& status) {
    std::fprintf(stderr, "tsv_to_omds: %s\n", status.ToString().c_str());
    return 1;
  };
  Result<data::DomainDataset> loaded = data::LoadDomainTsv(in_path, name);
  if (!loaded.ok()) return fail(loaded.status());
  Status written = data::WriteDomainOmds(loaded.value(), out_path);
  if (!written.ok()) return fail(written);
  Result<std::shared_ptr<const data::OmdsFile>> reloaded =
      data::OmdsFile::Open(out_path);
  if (!reloaded.ok()) return fail(reloaded.status());
  if (reloaded.value()->bytes() != loaded.value().image().bytes()) {
    std::fprintf(stderr, "tsv_to_omds: %s differs from the image written\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("tsv_to_omds: %zu records -> %s\n",
              loaded.value().num_reviews(), out_path.c_str());
  return 0;
}
