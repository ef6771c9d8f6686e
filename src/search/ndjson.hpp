#pragma once
// Minimal flat-JSON parsing for a run directory's meta.json record.
// The writers (RunLog::write_meta, explore::write_ndjson) emit flat
// objects — string, number, and boolean fields only — so this parser
// handles exactly that subset and rejects everything else.  A rejected
// line returns std::nullopt rather than throwing; the caller decides
// whether that is corruption.

#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace mergescale::search {

/// Field values of one parsed line, keyed by field name.  Strings are
/// unescaped; numbers and booleans keep their literal text ("1.5",
/// "true") for the caller to convert.
using FlatObject = std::map<std::string, std::string, std::less<>>;

/// Parses one `{"k":v,...}` line.  Returns std::nullopt for anything but
/// a complete flat object (nested values, arrays, torn lines, garbage).
std::optional<FlatObject> parse_flat_object(std::string_view line);

}  // namespace mergescale::search
