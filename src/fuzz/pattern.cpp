#include "fuzz/pattern.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace fs2::fuzz {

std::string PatternSpec::to_string() const {
  std::string text = groups.to_string();
  if (unroll > 0) text += strings::format("|u=%u", unroll);
  return text;
}

PatternSpec PatternSpec::parse(const std::string& text) {
  PatternSpec spec;
  const auto bar = text.find('|');
  const std::string groups_text(strings::trim(text.substr(0, bar)));
  spec.groups = payload::InstructionGroups::parse(groups_text);
  if (bar == std::string::npos) return spec;

  const std::string rest(strings::trim(text.substr(bar + 1)));
  if (!strings::starts_with(rest, "u="))
    throw ConfigError("pattern spec '" + text + "': expected '|u=N' after the groups");
  const std::uint64_t u =
      strings::parse_u64(std::string(rest.substr(2)), "pattern unroll");
  if (u == 0 || u > kMaxUnroll)
    throw ConfigError(strings::format("pattern spec unroll must be within [1, %u]",
                                      kMaxUnroll));
  spec.unroll = static_cast<std::uint32_t>(u);
  return spec;
}

}  // namespace fs2::fuzz
