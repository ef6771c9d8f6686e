#include "util/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace mergescale::util {

Cli::Cli(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

Cli& Cli::opt(std::string name, std::string default_value, std::string help) {
  options_[std::move(name)] =
      Option{Kind::kString, std::move(default_value), std::move(help)};
  return *this;
}

Cli& Cli::opt(std::string name, long long default_value, std::string help) {
  options_[std::move(name)] =
      Option{Kind::kInt, std::to_string(default_value), std::move(help)};
  return *this;
}

Cli& Cli::opt(std::string name, double default_value, std::string help) {
  std::ostringstream text;
  text << default_value;
  options_[std::move(name)] = Option{Kind::kDouble, text.str(), std::move(help)};
  return *this;
}

Cli& Cli::flag(std::string name, std::string help) {
  options_[std::move(name)] = Option{Kind::kFlag, "false", std::move(help)};
  return *this;
}

Cli::Option& Cli::find(std::string_view name) {
  auto it = options_.find(name);
  if (it == options_.end()) {
    throw std::out_of_range("unknown option: " + std::string(name));
  }
  return it->second;
}

const Cli::Option& Cli::find(std::string_view name) const {
  auto it = options_.find(name);
  if (it == options_.end()) {
    throw std::out_of_range("unknown option: " + std::string(name));
  }
  return it->second;
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help_text().c_str(), stdout);
      return false;
    }
    if (arg.substr(0, 2) != "--") {
      throw std::invalid_argument("unexpected positional argument: " +
                                  std::string(arg));
    }
    arg.remove_prefix(2);
    std::string name;
    std::optional<std::string> value;
    if (auto eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
    }
    // A typo'd flag gets the full usage text, not just the bad name: the
    // caller's catch-all prints exception messages verbatim, so this is
    // what turns `--treads 8` into an actionable one-screen answer.
    auto it = options_.find(name);
    if (it == options_.end()) {
      throw std::invalid_argument("unknown option --" + name + "\n\n" +
                                  help_text());
    }
    Option& option = it->second;
    if (option.kind == Kind::kFlag) {
      option.value = value.value_or("true");
    } else {
      if (!value) {
        if (i + 1 >= argc) {
          throw std::invalid_argument("option --" + name + " needs a value");
        }
        value = argv[++i];
      }
      option.value = *value;
    }
  }
  // Validate numeric options eagerly so errors point at the right flag.
  for (const auto& [name, option] : options_) {
    if (option.kind == Kind::kInt) (void)get_int(name);
    if (option.kind == Kind::kDouble) (void)get_double(name);
  }
  return true;
}

const std::string& Cli::get_string(std::string_view name) const {
  return find(name).value;
}

long long Cli::get_int(std::string_view name) const {
  const Option& option = find(name);
  try {
    std::size_t pos = 0;
    long long v = std::stoll(option.value, &pos);
    if (pos != option.value.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + std::string(name) +
                                " expects an integer, got '" + option.value +
                                "'");
  }
}

double Cli::get_double(std::string_view name) const {
  const Option& option = find(name);
  try {
    std::size_t pos = 0;
    double v = std::stod(option.value, &pos);
    if (pos != option.value.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + std::string(name) +
                                " expects a number, got '" + option.value +
                                "'");
  }
}

bool Cli::get_flag(std::string_view name) const {
  const Option& option = find(name);
  return option.value == "true" || option.value == "1" ||
         option.value == "yes";
}

std::string Cli::help_text() const {
  std::ostringstream out;
  out << program_ << " — " << summary_ << "\n\nOptions:\n";
  for (const auto& [name, option] : options_) {
    out << "  --" << name;
    if (option.kind != Kind::kFlag) out << " <value>";
    out << "\n      " << option.help << " (default: " << option.value
        << ")\n";
  }
  out << "  --help\n      Show this message.\n";
  return out.str();
}

std::vector<std::string> split_list(std::string_view text, char sep) {
  std::vector<std::string> items;
  while (!text.empty()) {
    const std::size_t end = std::min(text.find(sep), text.size());
    if (end > 0) items.emplace_back(text.substr(0, end));
    text.remove_prefix(std::min(end + 1, text.size()));
  }
  return items;
}

}  // namespace mergescale::util
