// aquamac-lint core: lexer, annotation/directive parsing and the two
// symbol passes (unordered-container names; structural inventory of
// classes/members/functions/globals). See lint_core.hpp.

#include "lint_core.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>

namespace aquamac_lint {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Splits "a, b ,c" into trimmed names.
std::vector<std::string> split_names(std::string_view list) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : list) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::string_view trimmed(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

// Parses `aquamac-lint: allow(...)` / `allow-file(...)` out of a comment.
void parse_allow(std::string_view comment, std::size_t line, std::vector<Allow>& allows) {
  const std::string_view kTag = "aquamac-lint:";
  const std::size_t tag = comment.find(kTag);
  if (tag == std::string_view::npos) return;
  std::string_view rest = comment.substr(tag + kTag.size());
  const bool whole_file = rest.find("allow-file(") != std::string_view::npos;
  const std::string_view kw = whole_file ? "allow-file(" : "allow(";
  const std::size_t open = rest.find(kw);
  if (open == std::string_view::npos) return;
  const std::size_t start = open + kw.size();
  const std::size_t close = rest.find(')', start);
  if (close == std::string_view::npos) return;
  Allow allow;
  allow.line = line;
  allow.whole_file = whole_file;
  allow.rules = split_names(rest.substr(start, close - start));
  const std::size_t dash = rest.find("--", close);
  if (dash != std::string_view::npos) {
    allow.reason = std::string(trimmed(rest.substr(dash + 2)));
  }
  if (!allow.rules.empty()) allows.push_back(allow);
}

// Parses `lint: <name>(payload [-- reason])` state-coverage directives.
// The tag must not be the tail of "aquamac-lint:" (that grammar is the
// Allow one, parsed above).
void parse_directive(std::string_view comment, std::size_t line,
                     std::vector<Directive>& directives) {
  std::size_t from = 0;
  while (true) {
    const std::size_t tag = comment.find("lint:", from);
    if (tag == std::string_view::npos) return;
    from = tag + 5;
    if (tag > 0 && (ident_char(comment[tag - 1]) || comment[tag - 1] == '-')) {
      continue;  // "aquamac-lint:" or similar — not this grammar
    }
    std::string_view rest = comment.substr(tag + 5);
    rest = trimmed(rest);
    std::size_t n = 0;
    while (n < rest.size() && (ident_char(rest[n]) || rest[n] == '-')) ++n;
    if (n == 0) continue;
    Directive d;
    d.name = std::string(rest.substr(0, n));
    d.line = line;
    std::string_view after = rest.substr(n);
    if (after.empty() || after.front() != '(') continue;
    const std::size_t close = after.find(')');
    if (close == std::string_view::npos) continue;
    std::string_view inside = after.substr(1, close - 1);
    const std::size_t dash = inside.find("--");
    if (dash != std::string_view::npos) {
      d.payload = std::string(trimmed(inside.substr(0, dash)));
      d.reason = std::string(trimmed(inside.substr(dash + 2)));
    } else {
      d.payload = std::string(trimmed(inside));
    }
    directives.push_back(d);
    return;
  }
}

void parse_comment(std::string_view comment, std::size_t line, SourceFile& file) {
  parse_allow(comment, line, file.allows);
  parse_directive(comment, line, file.directives);
}

// Lexes one translation unit: tokens with positions, comments routed to
// the annotation parsers, string/char literals skipped.
void lex(SourceFile& file) {
  const std::vector<std::string>& lines = file.raw_lines;
  bool in_block_comment = false;
  std::string block_comment;  // accumulated for annotation parsing
  std::size_t block_comment_line = 0;
  bool in_raw_string = false;
  std::string raw_delim;

  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& line = lines[li];
    std::size_t i = 0;
    if (in_raw_string) {
      const std::size_t end = line.find(raw_delim);
      if (end == std::string::npos) continue;
      in_raw_string = false;
      i = end + raw_delim.size();
    }
    if (in_block_comment) {
      const std::size_t end = line.find("*/");
      if (end == std::string::npos) {
        block_comment += line;
        continue;
      }
      block_comment += line.substr(0, end);
      parse_comment(block_comment, block_comment_line, file);
      in_block_comment = false;
      i = end + 2;
    }
    while (i < line.size()) {
      const char c = line[i];
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
        parse_comment(line.substr(i + 2), li + 1, file);
        break;
      }
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        const std::size_t end = line.find("*/", i + 2);
        if (end == std::string::npos) {
          in_block_comment = true;
          block_comment = line.substr(i + 2);
          block_comment_line = li + 1;
          i = line.size();
        } else {
          parse_comment(line.substr(i + 2, end - i - 2), li + 1, file);
          i = end + 2;
        }
        continue;
      }
      if (c == '"' || c == '\'') {
        // Raw string literal? R"delim( ... )delim" — may span lines.
        if (c == '"' && i > 0 && line[i - 1] == 'R') {
          const std::size_t open = line.find('(', i);
          if (open != std::string::npos) {
            std::string delim(1, ')');
            delim.append(line, i + 1, open - i - 1);
            delim.push_back('"');
            const std::size_t end = line.find(delim, open + 1);
            if (end != std::string::npos) {
              i = end + delim.size();
            } else {
              in_raw_string = true;
              raw_delim = delim;
              i = line.size();
            }
            continue;
          }
        }
        // Ordinary string/char literal: skip to unescaped close quote.
        std::size_t j = i + 1;
        while (j < line.size()) {
          if (line[j] == '\\') {
            j += 2;
            continue;
          }
          if (line[j] == c) break;
          ++j;
        }
        i = std::min(j + 1, line.size() + 1);
        continue;
      }
      if (ident_char(c) && std::isdigit(static_cast<unsigned char>(c)) == 0) {
        std::size_t j = i;
        while (j < line.size() && ident_char(line[j])) ++j;
        file.tokens.push_back(Token{line.substr(i, j - i), li + 1, i + 1, true});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        std::size_t j = i;
        while (j < line.size() && (ident_char(line[j]) || line[j] == '\'' || line[j] == '.')) ++j;
        file.tokens.push_back(Token{line.substr(i, j - i), li + 1, i + 1, false});
        i = j;
        continue;
      }
      if (!std::isspace(static_cast<unsigned char>(c))) {
        file.tokens.push_back(Token{std::string(1, c), li + 1, i + 1, false});
      }
      ++i;
    }
  }
}

}  // namespace

bool load(const fs::path& path, SourceFile& file) {
  std::ifstream in(path);
  if (!in) return false;
  file.path = path;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    file.raw_lines.push_back(line);
  }
  for (const fs::path& part : path) {
    if (part == "mac" || part == "sim") file.in_time_domain = true;
  }
  lex(file);
  return true;
}

bool has_source_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

bool suppressed(const SourceFile& file, const std::string& rule, std::size_t line) {
  for (const Allow& a : file.allows) {
    const bool names_rule = std::find(a.rules.begin(), a.rules.end(), rule) != a.rules.end();
    if (!names_rule) continue;
    if (a.whole_file) return true;
    // Same line, or the annotation sits on the immediately preceding line.
    if (line == a.line || line == a.line + 1) return true;
  }
  return false;
}

// ---------------------------------------------------------------------
// Symbol pass 1: names whose type involves an unordered container
// ---------------------------------------------------------------------

// Skips a balanced <...> starting at tokens[i] == "<"; returns the index
// one past the matching ">". Tolerates ">>" being two tokens.
static std::size_t skip_template_args(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (toks[i].text == "<") ++depth;
    else if (toks[i].text == ">") {
      if (--depth == 0) return i + 1;
    }
  }
  return i;
}

void collect_unordered_symbols(const SourceFile& file, UnorderedSymbols& syms) {
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].text != "unordered_map" && toks[i].text != "unordered_set" &&
        toks[i].text != "unordered_multimap" && toks[i].text != "unordered_multiset") {
      continue;
    }
    std::size_t j = i + 1;
    if (j < toks.size() && toks[j].text == "<") j = skip_template_args(toks, j);
    // Reference/const qualifiers between type and name.
    while (j < toks.size() && (toks[j].text == "&" || toks[j].text == "const" ||
                               toks[j].text == "*")) {
      ++j;
    }
    if (j >= toks.size() || !toks[j].is_ident) continue;
    const std::string& name = toks[j].text;
    const std::string next = j + 1 < toks.size() ? toks[j + 1].text : "";
    if (next == "(") {
      syms.accessors.insert(name);      // accessor returning unordered ref
    } else if (next == ";" || next == "{" || next == "=" || next == ",") {
      syms.variables.insert(name);      // member / local / param of unordered type
    }
  }
}

// ---------------------------------------------------------------------
// Symbol pass 2: structural inventory
// ---------------------------------------------------------------------

namespace {

const std::set<std::string>& type_keywords() {
  static const std::set<std::string> kw = {
      "const",    "constexpr", "constinit", "static",  "inline",   "mutable",
      "extern",   "thread_local", "unsigned", "signed", "long",    "short",
      "int",      "char",      "bool",      "float",   "double",   "auto",
      "void",     "volatile",  "struct",    "class",   "enum",     "union",
      "typename", "virtual",   "explicit",  "final",   "override", "noexcept",
      "operator", "register",  "wchar_t",   "char8_t", "char16_t", "char32_t",
  };
  return kw;
}

/// Walks one file's token stream, recording declarations into Structure.
class StructureParser {
 public:
  StructureParser(const SourceFile& file, std::size_t file_index, Structure& out)
      : file_{file}, file_index_{file_index}, out_{out}, t_{file.tokens} {}

  void parse() { parse_scope(0, t_.size(), "", false); }

 private:
  [[nodiscard]] const std::string& text(std::size_t i) const { return t_[i].text; }

  /// Index of the matching close brace for the open brace at `open`.
  [[nodiscard]] std::size_t match_brace(std::size_t open, std::size_t end) const {
    int depth = 0;
    for (std::size_t i = open; i < end; ++i) {
      if (text(i) == "{") ++depth;
      else if (text(i) == "}") {
        if (--depth == 0) return i;
      }
    }
    return end;
  }

  /// First index in [i, end) whose token is `what` at brace/paren depth 0
  /// relative to `i`; returns `end` if absent.
  [[nodiscard]] std::size_t find_at_depth0(std::size_t i, std::size_t end,
                                           std::string_view what) const {
    int depth = 0;
    for (; i < end; ++i) {
      const std::string& s = text(i);
      // Test before updating depth: an opening brace/paren sits at the
      // depth of its enclosing scope.
      if (depth == 0 && s == what) return i;
      if (s == "{" || s == "(") ++depth;
      else if (s == "}" || s == ")") {
        if (--depth < 0) return end;
      }
    }
    return end;
  }

  ClassInfo* find_class_mut(const std::string& qualified) {
    for (ClassInfo& c : out_.classes) {
      if (c.name == qualified && c.file_index == file_index_) return &c;
    }
    return nullptr;
  }

  // Enum bodies hold no classes, members or functions: skip them.
  void skip_enum(std::size_t& i, std::size_t end) {
    std::size_t open = i + 1;
    while (open < end && text(open) != "{" && text(open) != ";") ++open;
    i = open < end && text(open) == "{" ? match_brace(open, end) : open;
  }

  void parse_class(std::size_t& i, std::size_t end, const std::string& encl) {
    // Scan the class head: forward declaration (`;` first) vs definition.
    std::size_t j = i + 1;
    std::string name;
    std::size_t name_line = t_[i].line;
    std::size_t open = end;
    for (std::size_t k = j; k < end; ++k) {
      const std::string& s = text(k);
      if (s == ";") {
        i = k;  // forward declaration / elaborated type
        return;
      }
      if (s == "{") {
        open = k;
        break;
      }
      if (s == ":" && !(k + 1 < end && text(k + 1) == ":") &&
          !(k > 0 && text(k - 1) == ":")) {
        break;  // base clause: the name is already behind us
      }
      if (t_[k].is_ident && s != "final" && s != "alignas") {
        name = s;
        name_line = t_[k].line;
      }
    }
    if (open == end) {
      // Base clause seen before `{`: find the opening brace.
      open = find_at_depth0(i, end, "{");
      if (open == end) {
        i = end;
        return;
      }
    }
    const std::size_t close = match_brace(open, end);
    if (name.empty()) {  // anonymous struct/union: skip the body
      i = close;
      return;
    }
    const std::string qualified = encl.empty() ? name : encl + "::" + name;
    ClassInfo info;
    info.name = qualified;
    info.enclosing = encl;
    info.line = name_line;
    info.file_index = file_index_;
    out_.classes.push_back(std::move(info));
    parse_scope(open + 1, close, qualified, true);
    i = close;
  }

  /// Parses a function head at whose `(` we stand. Returns true if the
  /// construct was consumed (declaration or definition), advancing `i`.
  bool parse_function(std::size_t& i, std::size_t stmt_begin, std::size_t paren,
                      std::size_t end, const std::string& encl, bool in_class) {
    // Name: identifier (or operator-...) immediately before the paren.
    std::size_t name_tok = paren == 0 ? 0 : paren - 1;
    std::string name;
    if (t_[name_tok].is_ident) {
      name = text(name_tok);
      if (name_tok > 0 && text(name_tok - 1) == "~") name = "~" + name;
      // Conversion operator: `operator bool (`.
      if (name_tok > 0 && text(name_tok - 1) == "operator") {
        name = "operator " + name;
        --name_tok;
      }
    } else {
      // `operator+= (` and friends: walk back over punctuation.
      std::size_t k = name_tok;
      std::string punct;
      while (k > stmt_begin && !t_[k].is_ident && text(k) != ";" && text(k) != "}") {
        punct = text(k) + punct;
        --k;
      }
      if (k >= stmt_begin && t_[k].is_ident && text(k) == "operator") {
        name = "operator" + punct;
        name_tok = k;
      } else {
        return false;
      }
    }
    if (name.empty()) return false;
    // Qualifier: `A :: B ::` chain immediately before the name.
    std::string qualifier;
    std::size_t q = name_tok;
    while (q >= stmt_begin + 3 && text(q - 1) == ":" && text(q - 2) == ":" &&
           t_[q - 3].is_ident) {
      qualifier = qualifier.empty() ? text(q - 3) : text(q - 3) + "::" + qualifier;
      q -= 3;
    }
    if (qualifier.empty() && in_class) qualifier = encl;

    // Find the matching `)` of the parameter list.
    int depth = 0;
    std::size_t close_paren = end;
    for (std::size_t k = paren; k < end; ++k) {
      if (text(k) == "(") ++depth;
      else if (text(k) == ")") {
        if (--depth == 0) {
          close_paren = k;
          break;
        }
      }
    }
    if (close_paren == end) {
      i = end;
      return true;
    }

    // After the params: qualifiers, trailing return, `= default/delete/0`,
    // a constructor init list, then `{` (definition) or `;` (declaration).
    std::size_t k = close_paren + 1;
    bool is_definition = false;
    while (k < end) {
      const std::string& s = text(k);
      if (s == ";") break;
      if (s == "{") {
        is_definition = true;
        break;
      }
      if (s == ":" && !(k + 1 < end && text(k + 1) == ":") &&
          !(text(k - 1) == ":")) {
        // Constructor init list: `: a_{x}, b_(y) {` — skip the groups.
        ++k;
        int gdepth = 0;
        while (k < end) {
          const std::string& g = text(k);
          if (g == "(" || g == "{") {
            if (gdepth == 0 && g == "{" && (text(k - 1) == ")" || text(k - 1) == "}")) {
              break;  // the body brace after the last init group
            }
            ++gdepth;
          } else if (g == ")" || g == "}") {
            --gdepth;
          } else if (g == ";" && gdepth == 0) {
            break;
          }
          ++k;
          if (gdepth == 0 && k < end && text(k) == "{" &&
              (text(k - 1) == ")" || text(k - 1) == "}" || text(k - 1) == ",")) {
            // `a_{x} {` — body brace directly after a closed group.
            if (text(k - 1) != ",") break;
          }
        }
        if (k < end && text(k) == "{") is_definition = true;
        break;
      }
      if (s == "(" || s == "[" || s == "<") {
        // noexcept(...) / attributes / trailing-return templates: skip group.
        int gdepth = 0;
        const std::string open_s = s;
        const std::string close_s = s == "(" ? ")" : (s == "[" ? "]" : ">");
        for (; k < end; ++k) {
          if (text(k) == open_s) ++gdepth;
          else if (text(k) == close_s) {
            if (--gdepth == 0) break;
          }
        }
      }
      ++k;
    }

    if (in_class && !name.empty()) {
      if (ClassInfo* cls = find_class_mut(encl)) cls->declared_methods.insert(name);
    }
    if (!is_definition) {
      i = k;  // at the `;` (or end)
      return true;
    }
    const std::size_t body_open = k;
    const std::size_t body_close = match_brace(body_open, end);
    FunctionDef fn;
    fn.name = name;
    fn.qualifier = qualifier;
    for (std::size_t p = paren + 1; p < close_paren; ++p) fn.param_tokens.push_back(text(p));
    fn.line = t_[name_tok].line;
    fn.body_begin = body_open + 1;
    fn.body_end = body_close;
    fn.file_index = file_index_;
    out_.functions.push_back(std::move(fn));
    i = body_close;
    return true;
  }

  /// Parses one variable declaration statement `[stmt_begin, semi)`.
  void parse_variable(std::size_t stmt_begin, std::size_t semi, const std::string& encl,
                      bool in_class) {
    // Head: tokens before the initializer / bitfield width.
    std::size_t head_end = semi;
    int depth = 0;
    int angle = 0;
    for (std::size_t k = stmt_begin; k < semi; ++k) {
      const std::string& s = text(k);
      if (s == "(" || s == "[") ++depth;
      else if (s == ")" || s == "]") --depth;
      else if (s == "<") ++angle;
      else if (s == ">") angle = std::max(0, angle - 1);
      if (depth == 0 && angle == 0 &&
          (s == "=" || s == "{" ||
           (s == ":" && !(k + 1 < semi && text(k + 1) == ":") &&
            !(k > stmt_begin && text(k - 1) == ":")))) {
        head_end = k;
        break;
      }
    }
    // Declarator name: last depth-0 identifier in the head that is not a
    // type keyword.
    std::size_t name_tok = semi;
    depth = 0;
    angle = 0;
    for (std::size_t k = stmt_begin; k < head_end; ++k) {
      const std::string& s = text(k);
      if (s == "(" || s == "[") ++depth;
      else if (s == ")" || s == "]") --depth;
      else if (s == "<") ++angle;
      else if (s == ">") angle = std::max(0, angle - 1);
      else if (depth == 0 && angle == 0 && t_[k].is_ident &&
               !type_keywords().contains(s)) {
        // Skip `A` of a qualified type `A::B`.
        if (k + 1 < head_end && text(k + 1) == ":") continue;
        name_tok = k;
      }
    }
    if (name_tok == semi) return;

    bool is_const = false, is_static = false, is_extern = false, is_tls = false;
    bool is_ref = false, is_ptr = false, is_atomic = false;
    std::set<std::string> type_tokens;
    depth = 0;
    for (std::size_t k = stmt_begin; k < head_end; ++k) {
      const std::string& s = text(k);
      if (s == "(" || s == "[") ++depth;
      else if (s == ")" || s == "]") --depth;
      if (k == name_tok) continue;
      if (t_[k].is_ident) {
        if (s == "const" || s == "constexpr" || s == "constinit") is_const = true;
        else if (s == "static") is_static = true;
        else if (s == "extern") is_extern = true;
        else if (s == "thread_local") is_tls = true;
        else if (s == "constexpr") is_const = true;
        if (s == "atomic") is_atomic = true;
        if (!type_keywords().contains(s)) type_tokens.insert(s);
      } else if (depth == 0 && k < name_tok) {
        if (s == "&") is_ref = true;
        if (s == "*") is_ptr = true;
      }
    }
    // constexpr class members are implicitly static.
    const bool effectively_static =
        is_static || (in_class && is_const &&
                      std::any_of(t_.begin() + static_cast<std::ptrdiff_t>(stmt_begin),
                                  t_.begin() + static_cast<std::ptrdiff_t>(head_end),
                                  [](const Token& tok) { return tok.text == "constexpr"; }));

    if (in_class) {
      ClassInfo* cls = find_class_mut(encl);
      if (cls == nullptr) return;
      if (effectively_static) {
        cls->static_members.push_back(StaticMember{text(name_tok), t_[name_tok].line,
                                                   t_[name_tok].col, file_index_, is_const,
                                                   is_atomic});
      } else {
        MemberInfo m;
        m.name = text(name_tok);
        m.line = t_[name_tok].line;
        m.file_index = file_index_;
        m.is_reference = is_ref;
        m.is_pointer = is_ptr;
        m.is_const = is_const;
        m.type_is_atomic = is_atomic;
        m.type_tokens = std::move(type_tokens);
        cls->members.push_back(std::move(m));
      }
    } else {
      // Skip out-of-line definitions of class statics (`Foo::bar = ...`).
      if (name_tok >= stmt_begin + 2 && text(name_tok - 1) == ":" &&
          text(name_tok - 2) == ":") {
        return;
      }
      out_.globals.push_back(GlobalVar{text(name_tok), t_[name_tok].line, t_[name_tok].col,
                                       file_index_, is_const, is_static, is_extern, is_tls,
                                       is_atomic});
    }
  }

  void parse_scope(std::size_t begin, std::size_t end, const std::string& encl,
                   bool in_class) {
    std::size_t i = begin;
    while (i < end) {
      const std::string& s = text(i);
      if (s == ";" || s == "}" || s == "{") {
        ++i;
        continue;
      }
      if (s == "#") {
        // Preprocessor directive: consume the line, honoring `\` splices.
        std::size_t ln = t_[i].line;
        bool spliced = false;
        while (i < end) {
          if (t_[i].line != ln) {
            if (!spliced) break;
            ln = t_[i].line;
          }
          spliced = text(i) == "\\";
          ++i;
        }
        continue;
      }
      if (t_[i].is_ident &&
          (s == "public" || s == "private" || s == "protected") && i + 1 < end &&
          text(i + 1) == ":") {
        i += 2;
        continue;
      }
      if (s == "namespace") {
        std::size_t open = i + 1;
        while (open < end && text(open) != "{" && text(open) != ";") ++open;
        if (open >= end || text(open) == ";") {
          i = open + 1;
          continue;
        }
        const std::size_t close = match_brace(open, end);
        parse_scope(open + 1, close, encl, false);
        i = close + 1;
        continue;
      }
      if (s == "template") {
        // Skip the parameter list `<...>`; the templated entity follows.
        std::size_t j = i + 1;
        if (j < end && text(j) == "<") j = skip_template_args(t_, j);
        i = j;
        continue;
      }
      if (s == "using" || s == "typedef" || s == "friend" || s == "static_assert" ||
          s == "extern") {
        // `extern "C" {` has its string stripped: `extern {`.
        if (s == "extern" && i + 1 < end && text(i + 1) == "{") {
          const std::size_t close = match_brace(i + 1, end);
          parse_scope(i + 2, close, encl, in_class);
          i = close + 1;
          continue;
        }
        std::size_t semi = find_at_depth0(i, end, ";");
        i = semi + 1;
        continue;
      }
      if (s == "enum") {
        skip_enum(i, end);
        ++i;
        continue;
      }
      if (s == "class" || s == "struct" || s == "union") {
        // `struct Foo x;` (elaborated declarator) is rare here; treat a
        // head with a `{` as a definition, anything else falls through to
        // the declaration parser below via parse_class's `;` path.
        parse_class(i, end, encl);
        ++i;
        continue;
      }
      // Generic statement: find its extent and classify.
      int depth = 0;
      bool saw_assign = false;
      std::size_t paren = end;
      std::size_t k = i;
      for (; k < end; ++k) {
        const std::string& w = text(k);
        if (w == "(" ) {
          if (depth == 0 && paren == end && !saw_assign) {
            // A `(` directly after an identifier/operator begins a
            // parameter list (function) — unless an `=` already ran.
            if (k > i && (t_[k - 1].is_ident || !t_[k - 1].is_ident)) paren = k;
          }
          ++depth;
        } else if (w == "[" || w == "{") {
          ++depth;
        } else if (w == ")" || w == "]" || w == "}") {
          --depth;
          if (depth < 0) break;
        } else if (depth == 0 && w == "=") {
          // `=` is an initializer marker — but not inside `operator=` /
          // `operator+=` tokens, where it is part of the function name.
          static const std::set<std::string> kOpChars = {
              "+", "-", "*", "/", "%", "&", "|", "^", "<", ">", "!", "=",
          };
          const std::string prev = k > i ? text(k - 1) : std::string{};
          if (prev != "operator" && !kOpChars.contains(prev)) saw_assign = true;
        } else if (depth == 0 && w == ";") {
          break;
        }
        if (paren != end && !saw_assign) break;  // classify at the first paren
      }
      if (paren != end && !saw_assign) {
        std::size_t adv = i;
        if (parse_function(adv, i, paren, end, encl, in_class)) {
          i = adv + 1;
          continue;
        }
      }
      // Variable declaration (or expression statement — no declarator).
      std::size_t semi = i;
      depth = 0;
      for (; semi < end; ++semi) {
        const std::string& w = text(semi);
        if (w == "(" || w == "[" || w == "{") ++depth;
        else if (w == ")" || w == "]" || w == "}") {
          if (depth == 0) break;
          --depth;
        } else if (w == ";" && depth == 0) {
          break;
        }
      }
      parse_variable(i, semi, encl, in_class);
      i = semi + 1;
    }
  }

  const SourceFile& file_;
  std::size_t file_index_;
  Structure& out_;
  const std::vector<Token>& t_;
};

}  // namespace

void collect_structure(const SourceFile& file, std::size_t file_index, Structure& out) {
  StructureParser parser{file, file_index, out};
  parser.parse();
}

std::set<std::string> identifiers_in_range(const SourceFile& file, std::size_t begin,
                                           std::size_t end) {
  std::set<std::string> out;
  end = std::min(end, file.tokens.size());
  for (std::size_t i = begin; i < end; ++i) {
    if (file.tokens[i].is_ident) out.insert(file.tokens[i].text);
  }
  return out;
}

}  // namespace aquamac_lint
