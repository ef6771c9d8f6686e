#pragma once
// Minimal command-line option parser used by the bench/example binaries.
// Supports `--name value`, `--name=value` and boolean `--flag` forms plus
// automatic --help text.  No external dependencies.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mergescale::util {

/// Declarative CLI parser.  Register options with default values, call
/// parse(), then read back typed values.  Unknown options raise
/// std::invalid_argument so typos in experiment sweeps fail loudly.
class Cli {
 public:
  /// `program` and `summary` appear in the --help banner.
  Cli(std::string program, std::string summary);

  /// Registers a string option.
  Cli& opt(std::string name, std::string default_value, std::string help);
  /// Registers an integer option.
  Cli& opt(std::string name, long long default_value, std::string help);
  /// Registers a floating-point option.
  Cli& opt(std::string name, double default_value, std::string help);
  /// Registers a boolean flag (presence sets it true; --name=false works).
  Cli& flag(std::string name, std::string help);

  /// Parses argv.  Returns false when --help was requested (help text is
  /// printed to stdout); callers should then exit 0.
  bool parse(int argc, const char* const* argv);

  /// Typed accessors; throw std::out_of_range for unregistered names.
  const std::string& get_string(std::string_view name) const;
  long long get_int(std::string_view name) const;
  double get_double(std::string_view name) const;
  bool get_flag(std::string_view name) const;

  /// Renders the --help text.
  std::string help_text() const;

 private:
  enum class Kind { kString, kInt, kDouble, kFlag };
  struct Option {
    Kind kind;
    std::string value;  // canonical textual value
    std::string help;
  };

  Option& find(std::string_view name);
  const Option& find(std::string_view name) const;

  std::string program_;
  std::string summary_;
  std::map<std::string, Option, std::less<>> options_;
};

/// Splits `text` at `sep`, dropping empty items: the comma lists of the
/// list-valued options, and the tokens of a run config.
std::vector<std::string> split_list(std::string_view text, char sep = ',');

}  // namespace mergescale::util
