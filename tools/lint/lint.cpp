#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace findep::lint {

namespace {

namespace fs = std::filesystem;

// --- tokens -----------------------------------------------------------------

struct Token {
  enum class Kind { Ident, Punct, Number, String, Char };
  Kind kind = Kind::Punct;
  std::string text;
  int line = 1;

  [[nodiscard]] bool is(const char* t) const {
    return kind != Kind::String && kind != Kind::Char && text == t;
  }
  [[nodiscard]] bool ident(const char* t) const {
    return kind == Kind::Ident && text == t;
  }
};

/// One `// findep-lint: allow(a, b) -- why` comment.
struct Suppression {
  std::vector<std::string> rules;
  std::string justification;
  int line = 0;
  bool used = false;
  bool malformed = false;  // missing justification / unparsable rule list
};

struct FileScan {
  std::string path;       // as handed to run_lint (used in findings)
  std::string norm;       // generic-format path for suffix matching
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
  std::vector<std::string> includes;  // as written in #include "..."
  /// Identifiers declared in this file with an unordered container type
  /// (members, locals, params, functions returning one).
  std::set<std::string> unordered_names;
  /// Identifiers declared in this file with an ordered std container
  /// type (map, set, multimap, multiset).
  std::set<std::string> ordered_names;
};

bool suffix_match(const std::string& norm, const std::string& suffix) {
  if (suffix.size() > norm.size()) return norm == suffix;
  return norm.compare(norm.size() - suffix.size(), suffix.size(), suffix) ==
         0;
}

bool suffix_match_any(const std::string& norm,
                      const std::vector<std::string>& suffixes) {
  return std::any_of(suffixes.begin(), suffixes.end(),
                     [&](const std::string& s) {
                       return suffix_match(norm, s);
                     });
}

// --- the lexer --------------------------------------------------------------
// Produces identifier/punct/number/string tokens with line numbers;
// comments are consumed here (suppression comments parsed out),
// preprocessor lines are skipped except for #include "..." capture.

class Lexer {
 public:
  Lexer(const std::string& text, FileScan& out) : text_(text), out_(out) {}

  void run() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        at_line_start_ = true;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
        ++pos_;
        continue;
      }
      if (c == '#' && at_line_start_) {
        preprocessor_line();
        continue;
      }
      at_line_start_ = false;
      if (c == '/' && pos_ + 1 < text_.size()) {
        if (text_[pos_ + 1] == '/') {
          line_comment();
          continue;
        }
        if (text_[pos_ + 1] == '*') {
          block_comment();
          continue;
        }
      }
      if (c == '"' ) {
        string_literal();
        continue;
      }
      if (c == '\'') {
        char_literal();
        continue;
      }
      if (c == 'R' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '"') {
        raw_string();
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        identifier();
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        number();
        continue;
      }
      punct();
    }
  }

 private:
  void emit(Token::Kind kind, std::string text, int line) {
    out_.tokens.push_back(Token{kind, std::move(text), line});
  }

  void preprocessor_line() {
    const int line = line_;
    std::string directive;
    // Consume to end of line, honoring backslash continuations.
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\\' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '\n') {
        pos_ += 2;
        ++line_;
        directive += ' ';
        continue;
      }
      if (c == '\n') break;
      directive += c;
      ++pos_;
    }
    // Capture #include "repo/relative.h" (angle includes are system
    // headers — irrelevant to the declaration harvest).
    const std::size_t inc = directive.find("include");
    if (inc != std::string::npos) {
      const std::size_t open = directive.find('"', inc);
      if (open != std::string::npos) {
        const std::size_t close = directive.find('"', open + 1);
        if (close != std::string::npos) {
          out_.includes.push_back(
              directive.substr(open + 1, close - open - 1));
        }
      }
    }
    (void)line;
  }

  void line_comment() {
    const int line = line_;
    std::string body;
    pos_ += 2;
    while (pos_ < text_.size() && text_[pos_] != '\n') body += text_[pos_++];
    maybe_suppression(body, line);
  }

  void block_comment() {
    const int line = line_;
    std::string body;
    pos_ += 2;
    while (pos_ + 1 < text_.size() &&
           !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
      if (text_[pos_] == '\n') ++line_;
      body += text_[pos_++];
    }
    pos_ = std::min(pos_ + 2, text_.size());
    maybe_suppression(body, line);
  }

  /// Parses `findep-lint: allow(rule[, rule...]) -- justification` out of
  /// a comment body. A recognizable attempt that is missing pieces is
  /// recorded as malformed so the bad-suppression meta-rule can fire.
  void maybe_suppression(const std::string& body, int line) {
    const std::size_t tag = body.find("findep-lint:");
    if (tag == std::string::npos) return;
    Suppression supp;
    supp.line = line;
    const std::size_t allow = body.find("allow(", tag);
    const std::size_t close =
        allow == std::string::npos ? std::string::npos
                                   : body.find(')', allow);
    if (close == std::string::npos) {
      supp.malformed = true;
      out_.suppressions.push_back(std::move(supp));
      return;
    }
    std::string rules = body.substr(allow + 6, close - allow - 6);
    std::string rule;
    std::istringstream stream(rules);
    while (std::getline(stream, rule, ',')) {
      const std::size_t b = rule.find_first_not_of(" \t");
      const std::size_t e = rule.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      supp.rules.push_back(rule.substr(b, e - b + 1));
    }
    if (supp.rules.empty()) supp.malformed = true;
    const std::size_t dash = body.find("--", close);
    if (dash == std::string::npos) {
      supp.malformed = true;
    } else {
      const std::size_t b = body.find_first_not_of(" \t", dash + 2);
      if (b == std::string::npos) {
        supp.malformed = true;
      } else {
        supp.justification = body.substr(b);
      }
    }
    out_.suppressions.push_back(std::move(supp));
  }

  void string_literal() {
    const int line = line_;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      if (text_[pos_] == '\n') ++line_;
      ++pos_;
    }
    if (pos_ < text_.size()) ++pos_;
    emit(Token::Kind::String, "", line);
  }

  void char_literal() {
    const int line = line_;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '\'') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      ++pos_;
    }
    if (pos_ < text_.size()) ++pos_;
    emit(Token::Kind::Char, "", line);
  }

  void raw_string() {
    const int line = line_;
    pos_ += 2;  // R"
    std::string delim;
    while (pos_ < text_.size() && text_[pos_] != '(') delim += text_[pos_++];
    const std::string close = ")" + delim + "\"";
    const std::size_t end = text_.find(close, pos_);
    for (std::size_t i = pos_;
         i < (end == std::string::npos ? text_.size() : end); ++i) {
      if (text_[i] == '\n') ++line_;
    }
    pos_ = end == std::string::npos ? text_.size() : end + close.size();
    emit(Token::Kind::String, "", line);
  }

  void identifier() {
    const int line = line_;
    std::string word;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      word += text_[pos_++];
    }
    emit(Token::Kind::Ident, std::move(word), line);
  }

  void number() {
    const int line = line_;
    std::string digits;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == '\'')) {
      digits += text_[pos_++];
    }
    emit(Token::Kind::Number, std::move(digits), line);
  }

  void punct() {
    const int line = line_;
    const char c = text_[pos_];
    // `::` and `->` matter to the rules (member access vs free call);
    // everything else — including `>`/`<`, deliberately never combined
    // into shifts so template-argument scans can count depth — is a
    // single character.
    if (c == ':' && pos_ + 1 < text_.size() && text_[pos_ + 1] == ':') {
      pos_ += 2;
      emit(Token::Kind::Punct, "::", line);
      return;
    }
    if (c == '-' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
      pos_ += 2;
      emit(Token::Kind::Punct, "->", line);
      return;
    }
    ++pos_;
    emit(Token::Kind::Punct, std::string(1, c), line);
  }

  const std::string& text_;
  FileScan& out_;
  std::size_t pos_ = 0;
  int line_ = 1;
  bool at_line_start_ = true;
};

// --- shared token helpers ---------------------------------------------------

const std::set<std::string>& unordered_container_names() {
  static const std::set<std::string> names = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return names;
}

const std::set<std::string>& assoc_container_names() {
  static const std::set<std::string> names = {
      "map",           "multimap",          "set",
      "multiset",      "unordered_map",     "unordered_set",
      "unordered_multimap", "unordered_multiset"};
  return names;
}

/// From tokens[i] == "<", returns the index one past the matching ">".
std::size_t skip_angles(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (toks[i].is("<")) ++depth;
    if (toks[i].is(">")) {
      if (--depth == 0) return i + 1;
    }
    if (toks[i].is(";")) break;  // runaway (shift operator confusion)
  }
  return i;
}

bool preceded_by_member_access(const std::vector<Token>& toks,
                               std::size_t i) {
  return i > 0 && (toks[i - 1].is(".") || toks[i - 1].is("->"));
}

/// True when tokens[i] is `name` reached through `foo::name` for a `foo`
/// other than std/chrono (i.e. a user-qualified name, not the std one).
bool user_qualified(const std::vector<Token>& toks, std::size_t i) {
  if (i < 2 || !toks[i - 1].is("::")) return false;
  const Token& owner = toks[i - 2];
  return owner.kind == Token::Kind::Ident && owner.text != "std" &&
         owner.text != "chrono";
}

// --- declaration harvest (pass A) -------------------------------------------

/// Collects `using X = ...unordered_map<...>...;` / typedef alias names —
/// global across the scan, so a header alias covers its users.
void harvest_aliases(const FileScan& scan, std::set<std::string>& aliases) {
  const std::vector<Token>& toks = scan.tokens;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!toks[i].ident("using") && !toks[i].ident("typedef")) continue;
    // using X = <tokens...> ;
    std::size_t j = i + 1;
    std::string name;
    if (toks[i].ident("using") && toks[j].kind == Token::Kind::Ident &&
        j + 1 < toks.size() && toks[j + 1].is("=")) {
      name = toks[j].text;
      j += 2;
    }
    bool unordered = false;
    for (; j < toks.size() && !toks[j].is(";"); ++j) {
      if (toks[j].kind == Token::Kind::Ident &&
          unordered_container_names().count(toks[j].text) != 0) {
        unordered = true;
      }
      if (toks[i].ident("typedef") && toks[j].kind == Token::Kind::Ident) {
        name = toks[j].text;  // typedef: the last identifier is the alias
      }
    }
    if (unordered && !name.empty()) aliases.insert(name);
    i = j;
  }
}

/// Records identifiers declared with an unordered container type (or a
/// known alias of one): members, locals, parameters, and functions
/// returning one — every name whose iteration order is address-dependent.
/// Names declared with an ordered std container type are recorded too, so
/// a file's own ordered declaration can shadow a header's unordered one.
void harvest_container_names(FileScan& scan,
                             const std::set<std::string>& aliases) {
  const std::vector<Token>& toks = scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::Ident) continue;
    const bool unordered =
        unordered_container_names().count(toks[i].text) != 0;
    const bool ordered = !unordered &&
                         assoc_container_names().count(toks[i].text) != 0 &&
                         !user_qualified(toks, i);
    const bool alias = aliases.count(toks[i].text) != 0;
    if (!unordered && !ordered && !alias) continue;
    std::size_t j = i + 1;
    if (unordered || ordered) {
      if (j >= toks.size() || !toks[j].is("<")) continue;  // bare mention
      j = skip_angles(toks, j);
    }
    // Skip cv/ref decoration between the type and the declared name.
    while (j < toks.size() &&
           (toks[j].is("&") || toks[j].ident("const") ||
            toks[j].is("::"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == Token::Kind::Ident &&
        !toks[j].ident("const")) {
      (ordered ? scan.ordered_names : scan.unordered_names)
          .insert(toks[j].text);
    }
  }
}

// --- findings sink ----------------------------------------------------------

class Sink {
 public:
  Sink(FileScan& scan, std::vector<Finding>& findings)
      : scan_(scan), findings_(findings) {}

  void report(int line, const std::string& rule,
              const std::string& message) {
    for (Suppression& supp : scan_.suppressions) {
      if (supp.malformed) continue;
      if (supp.line != line && supp.line != line - 1) continue;
      if (std::find(supp.rules.begin(), supp.rules.end(), rule) ==
          supp.rules.end()) {
        continue;
      }
      supp.used = true;
      return;
    }
    // One report per (line, rule, message): a range-for over two
    // unordered names is one problem, not two.
    for (const Finding& f : findings_) {
      if (f.file == scan_.path && f.line == line && f.rule == rule &&
          f.message == message) {
        return;
      }
    }
    findings_.push_back(Finding{scan_.path, line, rule, message});
  }

 private:
  FileScan& scan_;
  std::vector<Finding>& findings_;
};

// --- rule: wall-clock -------------------------------------------------------

const std::set<std::string>& wall_clock_idents() {
  static const std::set<std::string> names = {
      "system_clock",  "steady_clock", "high_resolution_clock",
      "gettimeofday",  "clock_gettime", "timespec_get",
      "localtime",     "gmtime",        "mktime",
      "ftime",         "clock"};
  return names;
}

void rule_wall_clock(const FileScan& scan, const Options& options,
                     Sink& sink) {
  if (suffix_match_any(scan.norm, options.wall_clock_allowlist)) return;
  const std::vector<Token>& toks = scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::Ident) continue;
    if (preceded_by_member_access(toks, i)) continue;  // sim.clock() etc.
    if (user_qualified(toks, i)) continue;
    if (wall_clock_idents().count(toks[i].text) != 0) {
      // `clock` only as a call — `steady_clock` & friends on any use.
      if (toks[i].text == "clock" &&
          (i + 1 >= toks.size() || !toks[i + 1].is("("))) {
        continue;
      }
      sink.report(toks[i].line, "wall-clock",
                  "'" + toks[i].text +
                      "' reads the wall clock; simulated time must come "
                      "from sim::Simulator (allowlist: measured-timing "
                      "scenarios only)");
      continue;
    }
    if (toks[i].text == "time" && i + 1 < toks.size() &&
        toks[i + 1].is("(")) {
      sink.report(toks[i].line, "wall-clock",
                  "'time()' reads the wall clock; simulated time must "
                  "come from sim::Simulator");
    }
  }
}

// --- rule: ambient-rng ------------------------------------------------------

void rule_ambient_rng(const FileScan& scan, Sink& sink) {
  static const std::set<std::string> call_names = {
      "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48"};
  static const std::set<std::string> engine_names = {
      "mt19937",      "mt19937_64",   "minstd_rand", "minstd_rand0",
      "default_random_engine", "ranlux24", "ranlux48", "knuth_b"};
  const std::vector<Token>& toks = scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::Ident) continue;
    if (preceded_by_member_access(toks, i)) continue;
    if (user_qualified(toks, i)) continue;
    if (toks[i].text == "random_device") {
      sink.report(toks[i].line, "ambient-rng",
                  "std::random_device draws entropy outside the seed "
                  "chain; derive randomness from the scenario/replica "
                  "seed instead");
      continue;
    }
    if (call_names.count(toks[i].text) != 0 && i + 1 < toks.size() &&
        toks[i + 1].is("(")) {
      sink.report(toks[i].line, "ambient-rng",
                  "'" + toks[i].text +
                      "()' is ambient global RNG; derive randomness from "
                      "the scenario/replica seed instead");
      continue;
    }
    if (engine_names.count(toks[i].text) != 0 && i + 1 < toks.size()) {
      // Default construction only: `mt19937 g;`, `mt19937()`, `mt19937{}`.
      // A seeded constructor or a reference/parameter use is the
      // sanctioned pattern.
      const Token& next = toks[i + 1];
      const bool empty_parens = next.is("(") && i + 2 < toks.size() &&
                                toks[i + 2].is(")");
      const bool empty_braces = next.is("{") && i + 2 < toks.size() &&
                                toks[i + 2].is("}");
      const bool bare_decl = next.kind == Token::Kind::Ident &&
                             i + 2 < toks.size() && toks[i + 2].is(";");
      if (empty_parens || empty_braces || bare_decl) {
        sink.report(toks[i].line, "ambient-rng",
                    "default-constructed std::" + toks[i].text +
                        " uses the fixed default seed path; seed it "
                        "explicitly from the scenario/replica seed");
      }
    }
  }
}

// --- rule: unordered-iteration ----------------------------------------------

void rule_unordered_iteration(const FileScan& scan,
                              const std::set<std::string>& visible_names,
                              Sink& sink) {
  const std::vector<Token>& toks = scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // Range-for whose range expression mentions an unordered name.
    if (toks[i].ident("for") && i + 1 < toks.size() &&
        toks[i + 1].is("(")) {
      int depth = 0;
      std::size_t colon = 0;
      std::size_t close = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (toks[j].is("(")) ++depth;
        if (toks[j].is(")")) {
          if (--depth == 0) {
            close = j;
            break;
          }
        }
        if (toks[j].is(":") && depth == 1 && colon == 0) colon = j;
      }
      if (colon != 0 && close != 0) {
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (toks[j].kind == Token::Kind::Ident &&
              visible_names.count(toks[j].text) != 0) {
            sink.report(toks[i].line, "unordered-iteration",
                        "range-for over unordered container '" +
                            toks[j].text +
                            "': iteration order is address-dependent; "
                            "use an ordered container or sort before "
                            "consuming");
            break;
          }
        }
      }
      continue;
    }
    // Iterator-style access: name.begin() / name->cbegin() / ...
    if (toks[i].kind == Token::Kind::Ident &&
        visible_names.count(toks[i].text) != 0 && i + 3 < toks.size() &&
        (toks[i + 1].is(".") || toks[i + 1].is("->")) &&
        (toks[i + 2].ident("begin") || toks[i + 2].ident("cbegin") ||
         toks[i + 2].ident("rbegin")) &&
        toks[i + 3].is("(")) {
      sink.report(toks[i].line, "unordered-iteration",
                  "iterator walk of unordered container '" + toks[i].text +
                      "': iteration order is address-dependent; use an "
                      "ordered container or sort before consuming");
    }
  }
}

// --- rule: pointer-keyed-container ------------------------------------------

void rule_pointer_keyed(const FileScan& scan, Sink& sink) {
  const std::vector<Token>& toks = scan.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::Ident) continue;
    if (assoc_container_names().count(toks[i].text) == 0) continue;
    if (preceded_by_member_access(toks, i)) continue;  // params.set(...)
    if (!toks[i + 1].is("<")) continue;
    // Scan the first template argument (the key type).
    int depth = 0;
    bool pointer = false;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].is("<")) ++depth;
      if (toks[j].is(">")) {
        if (--depth == 0) break;
      }
      if (toks[j].is(",") && depth == 1) break;
      if (toks[j].is("*")) pointer = true;
      if (toks[j].is(";")) break;
    }
    if (pointer) {
      sink.report(toks[i].line, "pointer-keyed-container",
                  "std::" + toks[i].text +
                      " keyed on a raw pointer: ordering/hashing follows "
                      "allocation addresses, which change per run; key on "
                      "a stable id instead");
    }
  }
}

// --- rule: uninit-member ----------------------------------------------------

const std::set<std::string>& builtin_scalar_names() {
  static const std::set<std::string> names = {
      "bool",          "char",      "wchar_t",   "char8_t",  "char16_t",
      "char32_t",      "short",     "int",       "long",     "float",
      "double",        "size_t",    "ptrdiff_t", "int8_t",   "int16_t",
      "int32_t",       "int64_t",   "uint8_t",   "uint16_t", "uint32_t",
      "uint64_t",      "intptr_t",  "uintptr_t", "unsigned", "signed"};
  return names;
}

/// Walks one struct/class body (tokens[i] == "{") checking scalar members
/// for default initializers; recurses into nested types. Returns the
/// index one past the body's closing brace.
std::size_t check_struct_body(const FileScan& scan,
                              const std::vector<Token>& toks, std::size_t i,
                              const std::set<std::string>& scalars,
                              const std::string& type_name, Sink& sink);

/// From tokens[i] == "struct"/"class", checks the type if it has a body;
/// returns the index to resume from.
std::size_t check_type_decl(const FileScan& scan,
                            const std::vector<Token>& toks, std::size_t i,
                            const std::set<std::string>& scalars,
                            Sink& sink) {
  std::size_t j = i + 1;
  std::string name = "<anonymous>";
  if (j < toks.size() && toks[j].kind == Token::Kind::Ident) {
    name = toks[j].text;
    ++j;
  }
  // Scan past `final` and any base clause to the opening brace; a `;`
  // first means a forward declaration.
  for (; j < toks.size(); ++j) {
    if (toks[j].is(";")) return j + 1;
    if (toks[j].is("<")) j = skip_angles(toks, j) - 1;  // Base<T> clause
    if (toks[j].is("{")) {
      return check_struct_body(scan, toks, j, scalars, name, sink);
    }
  }
  return j;
}

std::size_t check_struct_body(const FileScan& scan,
                              const std::vector<Token>& toks, std::size_t i,
                              const std::set<std::string>& scalars,
                              const std::string& type_name, Sink& sink) {
  ++i;  // past '{'
  while (i < toks.size()) {
    const Token& tok = toks[i];
    if (tok.is("}")) return i + 1;
    // Access specifiers.
    if ((tok.ident("public") || tok.ident("private") ||
         tok.ident("protected")) &&
        i + 1 < toks.size() && toks[i + 1].is(":")) {
      i += 2;
      continue;
    }
    if (tok.ident("struct") || tok.ident("class")) {
      i = check_type_decl(scan, toks, i, scalars, sink);
      continue;
    }
    if (tok.ident("template") && i + 1 < toks.size() &&
        toks[i + 1].is("<")) {
      i = skip_angles(toks, i + 1);
      continue;
    }
    if (tok.ident("enum")) {  // enum members are a different rule's job
      while (i < toks.size() && !toks[i].is("{") && !toks[i].is(";")) ++i;
      if (i < toks.size() && toks[i].is("{")) {
        int depth = 0;
        for (; i < toks.size(); ++i) {
          if (toks[i].is("{")) ++depth;
          if (toks[i].is("}") && --depth == 0) {
            ++i;
            break;
          }
        }
      }
      if (i < toks.size() && toks[i].is(";")) ++i;
      continue;
    }
    // One member/function statement.
    const int line = tok.line;
    bool has_paren = false;
    bool has_init = false;
    bool skip_statement = tok.ident("using") || tok.ident("typedef") ||
                          tok.ident("static") || tok.ident("friend") ||
                          tok.ident("operator");
    std::vector<std::string> idents;
    int paren_depth = 0;
    for (; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.is("(")) {
        ++paren_depth;
        has_paren = true;
      }
      if (t.is(")")) --paren_depth;
      if (t.is("=") && paren_depth == 0) has_init = true;
      if (t.is("<") && paren_depth == 0 && !has_init) {
        i = skip_angles(toks, i) - 1;  // template args in the type
        skip_statement = true;  // templated type — not a scalar member
        continue;
      }
      if (t.is("{") && paren_depth == 0) {
        if (has_paren) {
          // Function body: skip it; no trailing ';' required.
          int depth = 0;
          for (; i < toks.size(); ++i) {
            if (toks[i].is("{")) ++depth;
            if (toks[i].is("}") && --depth == 0) {
              ++i;
              break;
            }
          }
          if (i < toks.size() && toks[i].is(";")) ++i;
          has_paren = true;
          skip_statement = true;
          break;
        }
        // Brace initializer: `crypto::Digest d{};` — initialized.
        has_init = true;
        int depth = 0;
        for (; i < toks.size(); ++i) {
          if (toks[i].is("{")) ++depth;
          if (toks[i].is("}") && --depth == 0) break;
        }
        continue;
      }
      if (t.is(";") && paren_depth == 0) {
        ++i;
        break;
      }
      if (t.is(":") && paren_depth == 0) skip_statement = true;  // bitfield
      if (t.kind == Token::Kind::Ident) idents.push_back(t.text);
    }
    if (skip_statement || has_paren || has_init || idents.size() < 2) {
      continue;
    }
    // `idents` = type tokens + the member name last. Scalar iff every
    // type identifier is a builtin scalar, a configured alias, or a
    // qualifier (std/const/...).
    static const std::set<std::string> ignorable = {
        "std", "const", "constexpr", "mutable", "volatile", "inline"};
    bool scalar_seen = false;
    bool all_scalar = true;
    for (std::size_t k = 0; k + 1 < idents.size(); ++k) {
      if (ignorable.count(idents[k]) != 0) continue;
      if (builtin_scalar_names().count(idents[k]) != 0 ||
          scalars.count(idents[k]) != 0) {
        scalar_seen = true;
      } else {
        all_scalar = false;
      }
    }
    if (scalar_seen && all_scalar) {
      sink.report(line, "uninit-member",
                  "scalar member '" + idents.back() + "' of wire struct " +
                      type_name +
                      " has no default initializer: a serialization "
                      "round-trip reads indeterminate bytes");
    }
  }
  return i;
}

void rule_uninit_member(const FileScan& scan, const Options& options,
                        Sink& sink) {
  if (!suffix_match_any(scan.norm, options.uninit_member_files)) return;
  std::set<std::string> scalars(options.scalar_aliases.begin(),
                                options.scalar_aliases.end());
  const std::vector<Token>& toks = scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].ident("struct") || toks[i].ident("class")) {
      i = check_type_decl(scan, toks, i, scalars, sink) - 1;
    }
  }
}

// --- include closure --------------------------------------------------------

/// Resolves `#include "x"` paths to scan indices so a .cpp sees the
/// unordered names its repo headers declare (one transitive closure,
/// cycle-safe). The file and its same-stem header (foo.cpp's foo.h) are
/// its own declarations: a name they declare with an ordered type is not
/// taken as unordered because another header declares that name so.
std::vector<std::set<std::string>> build_visible_names(
    const std::vector<FileScan>& scans) {
  std::map<std::string, std::size_t> by_suffix;
  for (std::size_t i = 0; i < scans.size(); ++i) {
    by_suffix[scans[i].norm] = i;
  }
  auto resolve = [&](const FileScan& from,
                     const std::string& inc) -> std::ptrdiff_t {
    const std::string dir =
        fs::path(from.norm).parent_path().generic_string();
    for (const std::string& candidate :
         {"src/" + inc, inc, dir.empty() ? inc : dir + "/" + inc}) {
      for (const auto& [norm, idx] : by_suffix) {
        if (suffix_match(norm, candidate)) return
            static_cast<std::ptrdiff_t>(idx);
      }
    }
    return -1;
  };

  std::vector<std::vector<std::size_t>> edges(scans.size());
  for (std::size_t i = 0; i < scans.size(); ++i) {
    for (const std::string& inc : scans[i].includes) {
      const std::ptrdiff_t j = resolve(scans[i], inc);
      if (j >= 0) edges[i].push_back(static_cast<std::size_t>(j));
    }
  }

  std::vector<std::set<std::string>> visible(scans.size());
  for (std::size_t i = 0; i < scans.size(); ++i) {
    std::set<std::size_t> own = {i};
    for (const char* ext : {".h", ".hpp"}) {
      const auto header = by_suffix.find(
          fs::path(scans[i].norm).replace_extension(ext).generic_string());
      if (header != by_suffix.end()) own.insert(header->second);
    }
    std::set<std::string> ordered;
    for (const std::size_t j : own) {
      ordered.insert(scans[j].ordered_names.begin(),
                     scans[j].ordered_names.end());
    }
    std::vector<std::size_t> stack = {i};
    std::set<std::size_t> seen = {i};
    while (!stack.empty()) {
      const std::size_t j = stack.back();
      stack.pop_back();
      for (const std::string& name : scans[j].unordered_names) {
        if (own.count(j) != 0 || ordered.count(name) == 0) {
          visible[i].insert(name);
        }
      }
      for (const std::size_t k : edges[j]) {
        if (seen.insert(k).second) stack.push_back(k);
      }
    }
  }
  return visible;
}

}  // namespace

// --- public interface -------------------------------------------------------

std::vector<RuleInfo> rule_catalog() {
  return {
      {"wall-clock",
       "chrono clocks / time() / gettimeofday outside the measured-timing "
       "allowlist"},
      {"ambient-rng",
       "rand(), std::random_device, default-constructed std engines — "
       "randomness outside the seed chain"},
      {"unordered-iteration",
       "range-for or .begin() walk of an unordered container — "
       "address-dependent order"},
      {"pointer-keyed-container",
       "map/set keyed on a raw pointer — address-dependent "
       "ordering/hashing"},
      {"uninit-member",
       "scalar wire-struct member without a default initializer"},
      {"bad-suppression",
       "findep-lint: allow(...) comment missing its rule list or '-- "
       "justification'"},
      {"unused-suppression",
       "allow(...) comment that suppressed nothing (stale exemption)"},
  };
}

std::vector<std::string> collect_sources(
    const std::vector<std::string>& paths, const Options& options) {
  auto excluded = [&](const std::string& p) {
    return std::any_of(options.exclude_substrings.begin(),
                       options.exclude_substrings.end(),
                       [&](const std::string& sub) {
                         return p.find(sub) != std::string::npos;
                       });
  };
  auto is_source = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
  };
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    if (!fs::exists(path)) {
      throw std::runtime_error("no such file or directory: " + path);
    }
    if (fs::is_directory(path)) {
      for (const auto& entry : fs::recursive_directory_iterator(path)) {
        if (!entry.is_regular_file() || !is_source(entry.path())) continue;
        const std::string p = entry.path().generic_string();
        if (!excluded(p)) files.push_back(p);
      }
    } else if (!excluded(path)) {
      files.push_back(path);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

std::vector<Finding> run_lint(const std::vector<std::string>& files,
                              const Options& options) {
  std::vector<Finding> findings;

  // Pass A: tokenize everything, harvest declarations.
  std::vector<FileScan> scans;
  scans.reserve(files.size());
  for (const std::string& file : files) {
    FileScan scan;
    scan.path = file;
    scan.norm = fs::path(file).generic_string();
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      findings.push_back(Finding{file, 0, "io-error", "cannot read file"});
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    Lexer(text, scan).run();
    scans.push_back(std::move(scan));
  }

  std::set<std::string> aliases;
  for (const FileScan& scan : scans) harvest_aliases(scan, aliases);
  for (FileScan& scan : scans) harvest_container_names(scan, aliases);
  const std::vector<std::set<std::string>> visible =
      build_visible_names(scans);

  // Pass B: rules.
  const std::set<std::string> known_rules = [] {
    std::set<std::string> rules;
    for (const RuleInfo& info : rule_catalog()) rules.insert(info.name);
    return rules;
  }();
  for (std::size_t i = 0; i < scans.size(); ++i) {
    FileScan& scan = scans[i];
    Sink sink(scan, findings);
    rule_wall_clock(scan, options, sink);
    rule_ambient_rng(scan, sink);
    rule_unordered_iteration(scan, visible[i], sink);
    rule_pointer_keyed(scan, sink);
    rule_uninit_member(scan, options, sink);

    for (const Suppression& supp : scan.suppressions) {
      if (supp.malformed) {
        findings.push_back(Finding{
            scan.path, supp.line, "bad-suppression",
            "malformed suppression: expected 'findep-lint: "
            "allow(rule[, rule...]) -- justification'"});
        continue;
      }
      for (const std::string& rule : supp.rules) {
        if (known_rules.count(rule) == 0) {
          findings.push_back(Finding{
              scan.path, supp.line, "bad-suppression",
              "allow() names unknown rule '" + rule + "'"});
        }
      }
      if (!supp.used) {
        findings.push_back(Finding{
            scan.path, supp.line, "unused-suppression",
            "suppression for '" + supp.rules.front() +
                "' matched no finding on this or the next line; remove "
                "the stale exemption"});
      }
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::string format_finding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": error: [" +
         finding.rule + "] " + finding.message;
}

}  // namespace findep::lint
