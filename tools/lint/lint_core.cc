#include "lint/lint_core.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <initializer_list>
#include <string>

namespace fedrec::lint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Concatenation via append: GCC 12's -Wrestrict mis-fires on chained
/// std::string operator+ at -O2 (PR105651), and this tree builds -Werror.
std::string Cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  std::size_t total = 0;
  for (std::string_view part : parts) total += part.size();
  out.reserve(total);
  for (std::string_view part : parts) out.append(part);
  return out;
}

/// True when `text[pos..pos+token)` equals `token` and neither neighbour is
/// an identifier character (so "time(" does not match "train_time(").
bool TokenAt(std::string_view text, std::size_t pos, std::string_view token) {
  if (text.compare(pos, token.size(), token) != 0) return false;
  if (pos > 0 && IsIdentChar(text[pos - 1])) return false;
  std::size_t end = pos + token.size();
  if (end < text.size() && IsIdentChar(text[end])) return false;
  return true;
}

/// Finds the first identifier-boundary occurrence of `token` in `text`.
std::size_t FindToken(std::string_view text, std::string_view token,
                      std::size_t from = 0) {
  for (std::size_t pos = text.find(token, from); pos != std::string_view::npos;
       pos = text.find(token, pos + 1)) {
    if (TokenAt(text, pos, token)) return pos;
  }
  return std::string_view::npos;
}

std::size_t SkipSpaces(std::string_view text, std::size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
  return pos;
}

/// True when the token at `pos` is followed (after spaces) by '('.
bool CalledAt(std::string_view text, std::size_t pos, std::string_view token) {
  std::size_t after = SkipSpaces(text, pos + token.size());
  return after < text.size() && text[after] == '(';
}

bool HasSuffix(std::string_view path, std::string_view suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool HasPrefix(std::string_view path, std::string_view prefix) {
  return path.compare(0, prefix.size(), prefix) == 0;
}

/// Layer rank in the include DAG: common < obs < data < {model, net} < fed
/// < {attack, shard}. obs (metrics + tracing) sees only common; every layer
/// above may record into it. model and net are siblings (equal rank, no
/// cross edge: the socket/framing layer knows nothing about models and vice
/// versa), as are the attack and shard leaves.
int LayerRank(std::string_view layer) {
  if (layer == "common") return 0;
  if (layer == "obs") return 1;
  if (layer == "data") return 2;
  if (layer == "model" || layer == "net") return 3;
  if (layer == "fed") return 4;
  if (layer == "attack" || layer == "shard") return 5;
  return -1;
}

/// "src/fed/client.cc" -> "fed"; empty when not a layered source file.
std::string_view FileLayer(std::string_view path) {
  if (!HasPrefix(path, "src/")) return {};
  std::string_view rest = path.substr(4);
  std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return {};
  std::string_view layer = rest.substr(0, slash);
  return LayerRank(layer) >= 0 ? layer : std::string_view{};
}

/// Extracts the target of a quoted `#include "..."` directive, or empty.
std::string_view QuotedInclude(std::string_view code) {
  std::size_t hash = SkipSpaces(code, 0);
  if (hash >= code.size() || code[hash] != '#') return {};
  std::size_t kw = SkipSpaces(code, hash + 1);
  if (code.compare(kw, 7, "include") != 0) return {};
  // ScanLines blanks string-literal bodies, so the include target is spaces
  // between two quotes here; recover it from the raw line instead. Callers
  // pass the raw line for include scanning — see LintFile.
  std::size_t open = code.find('"', kw + 7);
  if (open == std::string_view::npos) return {};
  std::size_t close = code.find('"', open + 1);
  if (close == std::string_view::npos) return {};
  return code.substr(open + 1, close - open - 1);
}

/// Appends names of variables/members declared as std::unordered_* on this
/// line: finds "unordered_" tokens, skips the balanced template argument
/// list, and records the identifier that follows.
void CollectUnorderedNames(std::string_view code,
                           std::vector<std::string>& names) {
  static constexpr std::array<std::string_view, 4> kTypes = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (std::string_view type : kTypes) {
    for (std::size_t pos = FindToken(code, type); pos != std::string_view::npos;
         pos = FindToken(code, type, pos + 1)) {
      std::size_t cursor = SkipSpaces(code, pos + type.size());
      if (cursor >= code.size() || code[cursor] != '<') continue;
      int angle_depth = 0;
      while (cursor < code.size()) {
        if (code[cursor] == '<') ++angle_depth;
        if (code[cursor] == '>' && --angle_depth == 0) break;
        ++cursor;
      }
      if (cursor >= code.size()) continue;  // declaration spans lines
      cursor = SkipSpaces(code, cursor + 1);
      while (cursor < code.size() && (code[cursor] == '&' || code[cursor] == '*')) {
        cursor = SkipSpaces(code, cursor + 1);
      }
      std::size_t name_begin = cursor;
      while (cursor < code.size() && IsIdentChar(code[cursor])) ++cursor;
      if (cursor > name_begin) {
        names.emplace_back(code.substr(name_begin, cursor - name_begin));
      }
    }
  }
}

/// For a range-based for header on `code`, returns the range expression
/// (text between the ':' and the closing ')'), or empty.
std::string_view RangeForExpression(std::string_view code) {
  std::size_t kw = FindToken(code, "for");
  if (kw == std::string_view::npos) return {};
  std::size_t open = SkipSpaces(code, kw + 3);
  if (open >= code.size() || code[open] != '(') return {};
  // Find the ':' that separates declaration from range; a "::" scope token
  // does not count.
  std::size_t colon = std::string_view::npos;
  int paren_depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '(') ++paren_depth;
    if (code[i] == ')' && --paren_depth == 0) {
      if (colon == std::string_view::npos) return {};
      return code.substr(colon + 1, i - colon - 1);
    }
    if (code[i] == ':' && paren_depth == 1) {
      bool scope = (i + 1 < code.size() && code[i + 1] == ':') ||
                   (i > 0 && code[i - 1] == ':');
      if (!scope && colon == std::string_view::npos) colon = i;
    }
  }
  return {};
}

/// The unqualified callee name when the trimmed line is a complete,
/// single-line statement that is a plain discarded call — `Name(args);` or
/// `receiver.Name(args);` — or empty. The caller is responsible for ensuring
/// the line *starts* a statement (not a continuation of the previous line).
std::string_view DiscardedCallee(std::string_view code) {
  std::size_t begin = SkipSpaces(code, 0);
  std::size_t end = code.find_last_not_of(" \t");
  if (end == std::string_view::npos || code[end] != ';') return {};
  std::string_view stmt = code.substr(begin, end - begin + 1);
  if (!HasSuffix(stmt, ");")) return {};
  // Reject anything that consumes or redirects the value.
  for (std::string_view stop :
       {"=", "return", "if", "while", "for", "switch", "(void)", "co_await"}) {
    if (stmt.find(stop) != std::string_view::npos) return {};
  }
  std::size_t open = stmt.find('(');
  if (open == std::string_view::npos || open == 0) return {};
  // The call's argument list must close the statement: a chained consumer
  // such as `F(x).CheckOK();` means the result is not discarded.
  int paren_depth = 0;
  std::size_t close = std::string_view::npos;
  for (std::size_t i = open; i < stmt.size(); ++i) {
    if (stmt[i] == '(') ++paren_depth;
    if (stmt[i] == ')' && --paren_depth == 0) {
      close = i;
      break;
    }
  }
  if (close != stmt.size() - 2) return {};
  std::size_t name_end = open;
  while (name_end > 0 &&
         std::isspace(static_cast<unsigned char>(stmt[name_end - 1])) != 0) {
    --name_end;
  }
  std::size_t name_begin = name_end;
  while (name_begin > 0 && IsIdentChar(stmt[name_begin - 1])) --name_begin;
  if (name_begin == name_end) return {};
  std::string_view name = stmt.substr(name_begin, name_end - name_begin);
  // Must be the entire statement: either the name starts the statement or a
  // member access ('.', '->', '::') leads into it.
  if (name_begin >= 1) {
    char prev = stmt[name_begin - 1];
    if (prev != '.' && prev != ':' && prev != '>') return {};
  }
  return name;
}

/// True when the comment's first word (after comment punctuation) is `tag`.
/// Tags must lead the comment — "// fedrec:hot" or "// fedrec:alloc-ok —
/// why" — so prose that merely *mentions* a tag does not activate it.
bool CommentStartsWithTag(std::string_view comment, std::string_view tag) {
  std::size_t pos = 0;
  while (pos < comment.size() &&
         (comment[pos] == '/' || comment[pos] == '*' || comment[pos] == '!' ||
          comment[pos] == '<' || comment[pos] == ' ' ||
          comment[pos] == '\t')) {
    ++pos;
  }
  if (comment.compare(pos, tag.size(), tag) != 0) return false;
  std::size_t end = pos + tag.size();
  return end >= comment.size() || !IsIdentChar(comment[end]);
}

/// True when the comment opts this line out of rule family `rule` via
/// `fedrec:lint-ok(<rule>)`.
bool LintOk(std::string_view comment, std::string_view rule) {
  std::size_t pos = comment.find("fedrec:lint-ok(");
  if (pos == std::string_view::npos) return false;
  std::string_view inside = comment.substr(pos + 15);
  std::size_t close = inside.find(')');
  if (close == std::string_view::npos) return false;
  return inside.substr(0, close) == rule;
}

class FileLinter {
 public:
  FileLinter(std::string_view path, std::string_view content,
             const LintContext& context, std::vector<Diagnostic>& out)
      : path_(path),
        lines_(ScanLines(content)),
        context_(context),
        out_(out) {
    std::size_t slash = path.find_last_of('/');
    base_ = path.substr(slash == std::string_view::npos ? 0 : slash + 1);
    layer_ = FileLayer(path);
  }

  std::size_t Run(std::string_view raw_content) {
    std::size_t before = out_.size();
    // Raw lines are needed for include targets (ScanLines blanks string
    // literal bodies, and the include path is a string literal).
    std::vector<std::string_view> raw_lines;
    raw_lines.reserve(lines_.size());
    for (std::size_t pos = 0; pos <= raw_content.size();) {
      std::size_t eol = raw_content.find('\n', pos);
      if (eol == std::string_view::npos) eol = raw_content.size();
      raw_lines.push_back(raw_content.substr(pos, eol - pos));
      pos = eol + 1;
    }

    CollectFileState();
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const std::string& code = lines_[i].code;
      const std::string& comment = lines_[i].comment;
      std::size_t line_no = i + 1;
      if (i < raw_lines.size()) CheckLayering(raw_lines[i], comment, line_no);
      CheckDeterminism(code, comment, line_no);
      CheckHotRegion(code, comment, line_no);
      CheckErrorDiscipline(code, comment, line_no);
      // A non-blank line ending in ; { } or : (statement end, block edge,
      // access label) means the next line starts a fresh statement; anything
      // else makes the next line a continuation.
      std::size_t last = code.find_last_not_of(" \t");
      if (last != std::string::npos) {
        char c = code[last];
        at_statement_start_ = c == ';' || c == '{' || c == '}' || c == ':';
      }
    }
    return out_.size() - before;
  }

 private:
  void Report(std::size_t line, std::string_view rule, std::string message) {
    out_.push_back(Diagnostic{std::string(path_), line, std::string(rule),
                              std::move(message)});
  }

  /// Pre-pass: names of unordered containers declared anywhere in the file
  /// (members declared in the header are handled when the header is linted;
  /// the .cc pass catches locals and file-scope state).
  void CollectFileState() {
    for (const ScannedLine& line : lines_) {
      CollectUnorderedNames(line.code, unordered_names_);
    }
  }

  void CheckLayering(std::string_view raw_line, std::string_view comment,
                     std::size_t line_no) {
    if (layer_.empty() || LintOk(comment, "layering")) return;
    std::string_view target = QuotedInclude(raw_line);
    if (target.empty()) return;
    std::size_t slash = target.find('/');
    if (slash == std::string_view::npos) return;
    std::string_view target_layer = target.substr(0, slash);
    int target_rank = LayerRank(target_layer);
    if (target_rank < 0) return;  // not a layered include
    if (target_layer == layer_ || target_rank < LayerRank(layer_)) return;
    Report(line_no, "layering",
           Cat({"src/", layer_, "/ must not include \"", target,
                "\": layer DAG is common < obs < data < {model, net} < fed "
                "< {attack, shard} with no upward or cross edges"}));
  }

  void CheckDeterminism(std::string_view code, std::string_view comment,
                        std::size_t line_no) {
    if (!HasPrefix(path_, "src/") || base_ == "stopwatch.h" ||
        LintOk(comment, "determinism")) {
      return;
    }
    struct Ban {
      std::string_view token;
      bool call_only;  ///< require a following '('
      std::string_view why;
    };
    static constexpr std::array<Ban, 4> kBans = {{
        {"rand", true, "std::rand is a hidden global rng"},
        {"random_device", false, "std::random_device is nondeterministic"},
        {"time", true, "wall-clock time breaks run-to-run reproducibility"},
        {"now", true, "clock reads are nondeterministic (use Stopwatch for "
                      "timing-only paths)"},
    }};
    for (const Ban& ban : kBans) {
      for (std::size_t pos = FindToken(code, ban.token);
           pos != std::string_view::npos;
           pos = FindToken(code, ban.token, pos + 1)) {
        if (ban.call_only && !CalledAt(code, pos, ban.token)) continue;
        // `now` must be a clock member (`::now(`) to avoid banning ordinary
        // identifiers.
        if (ban.token == "now" &&
            (pos < 2 || code.compare(pos - 2, 2, "::") != 0)) {
          continue;
        }
        Report(line_no, "determinism",
               Cat({"banned call '", ban.token, "(': ", ban.why}));
        break;
      }
    }
    // Range-iteration over unordered containers visits elements in hash
    // order — nondeterministic across libstdc++ versions and seeds — so it
    // is banned where iteration order feeds the aggregate: src/fed/ (the
    // aggregator lives here) and src/shard/.
    if (HasPrefix(path_, "src/fed/") || HasPrefix(path_, "src/shard/")) {
      std::string_view range = RangeForExpression(code);
      if (!range.empty()) {
        bool unordered = FindToken(range, "unordered_map") !=
                             std::string_view::npos ||
                         FindToken(range, "unordered_set") !=
                             std::string_view::npos;
        for (const std::string& name : unordered_names_) {
          if (unordered) break;
          unordered = FindToken(range, name) != std::string_view::npos;
        }
        if (unordered) {
          Report(line_no, "determinism",
                 "range-for over a std::unordered_* container iterates in "
                 "hash order; aggregate-feeding loops in src/fed/ and "
                 "src/shard/ must be deterministic");
        }
      }
    }
  }

  void CheckHotRegion(std::string_view code, std::string_view comment,
                      std::size_t line_no) {
    if (CommentStartsWithTag(comment, "fedrec:hot")) {
      pending_hot_ = true;
    }
    bool alloc_ok = CommentStartsWithTag(comment, "fedrec:alloc-ok") ||
                    LintOk(comment, "hot-alloc");
    if (in_hot_ && !alloc_ok) {
      struct Ban {
        std::string_view token;
        bool member_call;  ///< require '.' or '->' before and '(' after
        std::string_view why;
      };
      static constexpr std::array<Ban, 8> kBans = {{
          {"new", false, "operator new allocates"},
          {"malloc", true, "malloc allocates"},
          {"resize", true, "resize may reallocate"},
          {"push_back", true, "push_back may reallocate"},
          {"emplace_back", true, "emplace_back may reallocate"},
          {"insert", true, "insert may reallocate"},
          {"reserve", true, "reserve reallocates when capacity grows"},
          {"assign", true, "assign reallocates when it grows"},
      }};
      for (const Ban& ban : kBans) {
        for (std::size_t pos = FindToken(code, ban.token);
             pos != std::string_view::npos;
             pos = FindToken(code, ban.token, pos + 1)) {
          if (ban.member_call) {
            if (!CalledAt(code, pos, ban.token)) continue;
            if (pos == 0 || (code[pos - 1] != '.' && code[pos - 1] != '>')) {
              continue;
            }
          }
          Report(line_no, "hot-alloc",
                 Cat({"'", ban.token, "' inside a `// fedrec:hot` region: ",
                      ban.why,
                      " (deliberate high-water growth lines take "
                      "`// fedrec:alloc-ok`)"}));
          break;
        }
      }
      std::size_t str = code.find("std::string");
      if (str != std::string_view::npos &&
          !TokenAt(code, str + 5, "string_view")) {
        std::size_t after = str + 11;  // len("std::string")
        if (after >= code.size() || !IsIdentChar(code[after])) {
          Report(line_no, "hot-alloc",
                 "std::string construction inside a `// fedrec:hot` region "
                 "allocates");
        }
      }
    }
    // Track brace depth after the checks so the opening line of the region
    // is itself scanned.
    for (char c : code) {
      if (c == '{') {
        if (pending_hot_) {
          in_hot_ = true;
          pending_hot_ = false;
          hot_close_depth_ = brace_depth_;
        }
        ++brace_depth_;
      } else if (c == '}') {
        if (brace_depth_ > 0) --brace_depth_;
        if (in_hot_ && brace_depth_ == hot_close_depth_) in_hot_ = false;
      }
    }
  }

  void CheckErrorDiscipline(std::string_view code, std::string_view comment,
                            std::size_t line_no) {
    if (LintOk(comment, "error-discipline")) return;
    if (FindToken(code, "reinterpret_cast") != std::string_view::npos &&
        base_ != "wire.cc" && base_ != "serialize.cc" &&
        base_ != "socket.cc") {
      Report(line_no, "error-discipline",
             "reinterpret_cast is confined to the byte-copy trusted zone "
             "(wire.cc, serialize.cc, socket.cc); use std::memcpy elsewhere");
    }
    std::size_t catch_pos = FindToken(code, "catch");
    if (catch_pos != std::string_view::npos) {
      std::size_t open = SkipSpaces(code, catch_pos + 5);
      std::size_t dots = open < code.size() && code[open] == '('
                             ? SkipSpaces(code, open + 1)
                             : std::string_view::npos;
      if (dots != std::string_view::npos &&
          code.substr(dots, 3) == "...") {
        Report(line_no, "error-discipline",
               "naked `catch (...)` swallows failures; library code returns "
               "Status instead of throwing");
      }
    }
    if (HasSuffix(path_, ".cc") && at_statement_start_) {
      std::string_view callee = DiscardedCallee(code);
      if (!callee.empty() &&
          context_.fallible_functions.count(std::string(callee)) > 0) {
        Report(line_no, "error-discipline",
               Cat({"result of fallible call '", callee,
                    "' is discarded; check the Status/Result or cast to "
                    "(void) with a comment when intentional"}));
      }
    }
  }

  std::string_view path_;
  std::string_view base_;
  std::string_view layer_;
  std::vector<ScannedLine> lines_;
  const LintContext& context_;
  std::vector<Diagnostic>& out_;

  std::vector<std::string> unordered_names_;
  int brace_depth_ = 0;
  bool pending_hot_ = false;
  bool in_hot_ = false;
  int hot_close_depth_ = 0;
  bool at_statement_start_ = true;
};

}  // namespace

std::string Diagnostic::ToString() const {
  std::string out = file;
  out.append(":").append(std::to_string(line));
  out.append(": [").append(rule).append("] ").append(message);
  return out;
}

std::vector<ScannedLine> ScanLines(std::string_view content) {
  std::vector<ScannedLine> lines;
  enum class State { kCode, kString, kChar, kBlockComment, kRawString };
  State state = State::kCode;
  std::string raw_terminator;  // ")delim\"" of the active raw string
  ScannedLine current;
  for (std::size_t i = 0; i < content.size(); ++i) {
    char c = content[i];
    char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      lines.push_back(std::move(current));
      current = ScannedLine{};
      // Strings and char literals do not span lines; block comments and raw
      // strings do.
      if (state != State::kBlockComment && state != State::kRawString) {
        state = State::kCode;
      }
      continue;
    }
    switch (state) {
      case State::kRawString:
        if (content.compare(i, raw_terminator.size(), raw_terminator) == 0) {
          i += raw_terminator.size() - 1;
          current.code.push_back('"');
          state = State::kCode;
        } else {
          current.code.push_back(' ');
        }
        break;
      case State::kCode:
        if (c == 'R' && next == '"' &&
            (i == 0 || !IsIdentChar(content[i - 1]))) {
          // R"delim( ... )delim" — find the delimiter, then blank until the
          // matching terminator (raw strings may span lines).
          std::size_t open = content.find('(', i + 2);
          if (open != std::string_view::npos) {
            raw_terminator =
                Cat({")", content.substr(i + 2, open - (i + 2)), "\""});
            current.code.push_back('"');
            state = State::kRawString;
            i = open;
            break;
          }
        }
        if (c == '/' && next == '/') {
          std::size_t eol = content.find('\n', i);
          if (eol == std::string_view::npos) eol = content.size();
          current.comment.append(content.substr(i, eol - i));
          i = eol - 1;  // the loop increment lands on the '\n'
          break;
        }
        if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
          break;
        }
        if (c == '"') {
          state = State::kString;
          current.code.push_back(c);
          break;
        }
        if (c == '\'') {
          state = State::kChar;
          current.code.push_back(c);
          break;
        }
        current.code.push_back(c);
        break;
      case State::kString:
      case State::kChar: {
        char quote = state == State::kString ? '"' : '\'';
        if (c == '\\') {
          current.code.push_back(' ');
          if (next != '\0' && next != '\n') {
            current.code.push_back(' ');
            ++i;
          }
        } else if (c == quote) {
          current.code.push_back(quote);
          state = State::kCode;
        } else {
          current.code.push_back(' ');
        }
        break;
      }
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else {
          current.comment.push_back(c);
        }
        break;
    }
  }
  lines.push_back(std::move(current));
  return lines;
}

void CollectFallible(std::string_view content, LintContext& context) {
  for (const ScannedLine& line : ScanLines(content)) {
    const std::string& code = line.code;
    for (std::string_view ret : {std::string_view("Status"),
                                 std::string_view("Result")}) {
      for (std::size_t pos = FindToken(code, ret);
           pos != std::string_view::npos; pos = FindToken(code, ret, pos + 1)) {
        std::size_t cursor = pos + ret.size();
        if (ret == "Result") {
          cursor = SkipSpaces(code, cursor);
          if (cursor >= code.size() || code[cursor] != '<') continue;
          int angle_depth = 0;
          while (cursor < code.size()) {
            if (code[cursor] == '<') ++angle_depth;
            if (code[cursor] == '>' && --angle_depth == 0) break;
            ++cursor;
          }
          if (cursor >= code.size()) continue;
          ++cursor;
        }
        cursor = SkipSpaces(code, cursor);
        std::size_t name_begin = cursor;
        while (cursor < code.size() && IsIdentChar(code[cursor])) ++cursor;
        if (cursor == name_begin) continue;
        std::size_t paren = SkipSpaces(code, cursor);
        if (paren >= code.size() || code[paren] != '(') continue;
        std::string name = code.substr(name_begin, cursor - name_begin);
        if (name == "operator") continue;
        context.fallible_functions.insert(std::move(name));
      }
    }
  }
}

std::size_t LintFile(std::string_view path, std::string_view content,
                     const LintContext& context, std::vector<Diagnostic>& out) {
  FileLinter linter(path, content, context, out);
  return linter.Run(content);
}

}  // namespace fedrec::lint
