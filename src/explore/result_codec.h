// Lossless binary serialisation of StudyResult for the on-disk cache
// (explore/cache_store.h).  The JSON result envelope of study_json.h is
// deliberately one-way — Monte-Carlo sample vectors are summarised and
// tables hold preformatted text — so a persisted result that
// round-tripped through it would *not* be bit-identical to the
// in-memory original.  This codec is the lossless counterpart: every
// payload double is stored as its exact 8-byte pattern, every vector in
// full, so decode(encode(r)) reproduces `r` field for field and a
// warm-started cache serves the very bytes a cold evaluation produced.
//
// The format is positional and versioned only from the outside: the
// cache store's entry header carries the model fingerprint
// (core/version.h), which kModelSchemaVersion folds into — any codec
// change bumps the schema version and orphans old entries wholesale.
// decode_result never trusts the input: counts are bounded by the
// remaining bytes, enum values are range-checked, and any structural
// violation returns false instead of throwing or crashing.
#pragma once

#include <string>
#include <string_view>

#include "explore/study.h"

namespace chiplet::explore {

/// Serialises `result` (payload, run info, table, ledgers) losslessly.
[[nodiscard]] std::string encode_result(const StudyResult& result);

/// Inverse of encode_result.  Returns false on malformed or truncated
/// input (`out` is unspecified then); never throws, never over-reads.
[[nodiscard]] bool decode_result(std::string_view data, StudyResult& out);

}  // namespace chiplet::explore
