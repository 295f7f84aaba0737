#ifndef OMNIMATCH_DATA_CSV_H_
#define OMNIMATCH_DATA_CSV_H_

#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace omnimatch {
namespace data {

/// Saves a domain as tab-separated values with a header row:
///   user_id \t item_id \t rating \t summary \t full_text
/// Tabs, newlines, carriage returns and backslashes inside text fields are
/// escaped (\t, \n, \r, \\) so save -> load round-trips review text
/// exactly.
Status SaveDomainTsv(const DomainDataset& dataset, const std::string& path);

/// Loads a domain written by SaveDomainTsv (or hand-authored in the same
/// format). Escape sequences in text fields are decoded; numeric fields are
/// parsed strictly (trailing garbage or out-of-range values reject the row
/// with file:line context). The records land in an in-memory OMDS image
/// through OmdsWriter, whose Add is the record validator. The dataset name
/// is taken from `name`, not the file.
Result<DomainDataset> LoadDomainTsv(const std::string& path,
                                    const std::string& name);

}  // namespace data
}  // namespace omnimatch

#endif  // OMNIMATCH_DATA_CSV_H_
