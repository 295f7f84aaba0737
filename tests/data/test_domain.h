#ifndef OMNIMATCH_TESTS_DATA_TEST_DOMAIN_H_
#define OMNIMATCH_TESTS_DATA_TEST_DOMAIN_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <utility>

#include "common/check.h"
#include "data/dataset.h"
#include "data/omds.h"

namespace omnimatch {
namespace data {

/// Builds a domain from literal records through the OMDS buffer writer —
/// the path LoadDomainTsv and SyntheticWorld take.
inline DomainDataset MakeDomain(std::string name,
                                std::initializer_list<Review> records) {
  OmdsWriter writer;
  for (const Review& r : records) {
    Status added =
        writer.Add(r.user_id, r.item_id, r.rating, r.summary, r.full_text);
    OM_CHECK(added.ok()) << added.ToString();
  }
  Status finalized = writer.Finalize();
  OM_CHECK(finalized.ok()) << finalized.ToString();
  Result<std::shared_ptr<const OmdsFile>> image = writer.TakeImage();
  OM_CHECK(image.ok()) << image.status().ToString();
  return DomainDataset(std::move(name), std::move(image).value());
}

}  // namespace data
}  // namespace omnimatch

#endif  // OMNIMATCH_TESTS_DATA_TEST_DOMAIN_H_
