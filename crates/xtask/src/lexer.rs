//! A small hand-rolled Rust scanner.
//!
//! The analyzer does not need a full parser: every lint in this crate
//! works from a *masked* view of the source in which comment bodies and
//! the interiors of string/char literals are blanked out (newlines are
//! preserved so offsets and line numbers survive masking). On top of the
//! mask it computes the spans of `#[cfg(test)]`-gated items, so lints can
//! skip test code without understanding the grammar.
//!
//! The scanner understands: line comments, nested block comments, string
//! literals with escapes, raw strings (`r"…"`, `r#"…"#`, any hash
//! count, with `b`/`c` prefixes), byte strings, char literals, and the
//! char-literal/lifetime ambiguity (`'a'` vs `&'a str`).

/// One logical source line of the masked view.
#[derive(Debug)]
pub struct Line {
    /// 1-based line number.
    pub number: usize,
    /// Masked code: comments and literal interiors are spaces.
    pub code: String,
    /// Original source text of the line (for reports).
    pub raw: String,
    /// True when the line is inside a `#[cfg(test)]`/`#[test]` item.
    pub in_test: bool,
}

/// A scanned source file: the masked text plus per-line views.
#[derive(Debug)]
pub struct ScannedFile {
    /// Masked full text (same length as the input, newlines preserved).
    pub masked: String,
    /// Per-line masked/raw views with test-region flags.
    pub lines: Vec<Line>,
}

/// Scan `src` into its masked view and line table.
pub fn scan(src: &str) -> ScannedFile {
    let masked = mask(src);
    let test_spans = test_item_spans(&masked);
    let mut lines = Vec::new();
    let mut offset = 0usize;
    for (i, (raw, code)) in src.lines().zip(masked.lines()).enumerate() {
        let in_test = test_spans
            .iter()
            .any(|&(lo, hi)| offset >= lo && offset < hi);
        lines.push(Line {
            number: i + 1,
            code: code.to_string(),
            raw: raw.to_string(),
            in_test,
        });
        offset += raw.chars().count() + 1; // '\n'
    }
    ScannedFile { masked, lines }
}

/// Is `c` part of an identifier?
pub fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Blank out comments and literal interiors, preserving length and
/// newlines. Quote characters of string/char literals are kept so that
/// patterns like `.expect(` can never match inside a literal but the
/// structure of the code stays visible.
pub fn mask(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out: Vec<char> = Vec::with_capacity(b.len());
    let mut i = 0usize;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == '/' && b.get(i + 1) == Some(&'/') {
            while i < b.len() && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && b.get(i + 1) == Some(&'*') {
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Raw (and byte/C) strings: r"…", r#"…"#, br"…", cr#"…"#…
        if (c == 'r' || c == 'b' || c == 'c') && !prev_is_ident(&out) {
            let mut j = i;
            if (b[j] == 'b' || b[j] == 'c') && b.get(j + 1) == Some(&'r') {
                j += 1;
            }
            if b[j] == 'r' {
                let mut k = j + 1;
                let mut hashes = 0usize;
                while b.get(k) == Some(&'#') {
                    hashes += 1;
                    k += 1;
                }
                if b.get(k) == Some(&'"') {
                    // Copy the prefix and opening quote literally.
                    for &p in &b[i..=k] {
                        out.push(p);
                    }
                    i = k + 1;
                    // Blank until `"` followed by `hashes` hashes.
                    while i < b.len() {
                        if b[i] == '"'
                            && b[i + 1..]
                                .iter()
                                .take(hashes)
                                .filter(|&&h| h == '#')
                                .count()
                                == hashes
                        {
                            out.push('"');
                            out.extend(std::iter::repeat_n('#', hashes));
                            i += 1 + hashes;
                            break;
                        }
                        out.push(blank(b[i]));
                        i += 1;
                    }
                    continue;
                }
            }
        }
        // Plain / byte string.
        if c == '"' {
            out.push('"');
            i += 1;
            while i < b.len() {
                if b[i] == '\\' && i + 1 < b.len() {
                    out.push(' ');
                    out.push(blank(b[i + 1]));
                    i += 2;
                } else if b[i] == '"' {
                    out.push('"');
                    i += 1;
                    break;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let is_char_lit = match b.get(i + 1) {
                Some('\\') => true,
                Some(&n) => b.get(i + 2) == Some(&'\'') && n != '\'',
                None => false,
            };
            if is_char_lit {
                out.push('\'');
                i += 1;
                while i < b.len() {
                    if b[i] == '\\' && i + 1 < b.len() {
                        out.push(' ');
                        out.push(blank(b[i + 1]));
                        i += 2;
                    } else if b[i] == '\'' {
                        out.push('\'');
                        i += 1;
                        break;
                    } else {
                        out.push(blank(b[i]));
                        i += 1;
                    }
                }
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out.into_iter().collect()
}

fn prev_is_ident(out: &[char]) -> bool {
    out.last().is_some_and(|&c| is_ident(c))
}

/// Char-offset spans (half-open) of items gated behind `#[test]`,
/// `#[cfg(test)]`, or any `cfg` attribute mentioning `test` (e.g.
/// Does a cfg predicate contain the word `test` outside every
/// `not(…)` group? `all(test, not(loom))` → yes; `not(test)` → no.
fn has_test_outside_not(s: &str) -> bool {
    let b: Vec<char> = s.chars().collect();
    // Balanced spans of every `not(…)` group.
    let mut not_spans: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i + 4 <= b.len() {
        let word_start = i == 0 || !is_ident(b[i - 1]);
        if word_start
            && b.get(i..i + 4)
                .is_some_and(|w| w.iter().collect::<String>() == "not(")
        {
            let mut d = 0usize;
            let mut j = i + 3;
            while j < b.len() {
                match b[j] {
                    '(' => d += 1,
                    ')' => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            not_spans.push((i, j));
            i += 4;
        } else {
            i += 1;
        }
    }
    let mut k = 0usize;
    while k + 4 <= b.len() {
        let is_word = b
            .get(k..k + 4)
            .is_some_and(|w| w.iter().collect::<String>() == "test")
            && (k == 0 || !is_ident(b[k - 1]))
            && b.get(k + 4).is_none_or(|&c| !is_ident(c));
        if is_word && !not_spans.iter().any(|&(a, z)| k > a && k < z) {
            return true;
        }
        k += 1;
    }
    false
}

/// `#[cfg(all(loom, test))]`) — but not `#[cfg(not(test))]`.
fn test_item_spans(masked: &str) -> Vec<(usize, usize)> {
    let b: Vec<char> = masked.chars().collect();
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        if b[i] != '#' || b.get(i + 1) != Some(&'[') {
            i += 1;
            continue;
        }
        let attr_start = i;
        // Find the matching `]` of the attribute.
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < b.len() {
            match b[j] {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j >= b.len() {
            break;
        }
        let content: String = b[i + 2..j].iter().collect();
        let is_test_attr = {
            let trimmed = content.trim();
            trimmed == "test" || (trimmed.starts_with("cfg") && has_test_outside_not(trimmed))
        };
        i = j + 1;
        if !is_test_attr {
            continue;
        }
        // Skip whitespace and any further attributes, then take the item:
        // through its matching `}` if a block opens first, else to `;`.
        let mut k = i;
        loop {
            while k < b.len() && b[k].is_whitespace() {
                k += 1;
            }
            if b.get(k) == Some(&'#') && b.get(k + 1) == Some(&'[') {
                let mut d = 0usize;
                while k < b.len() {
                    match b[k] {
                        '[' => d += 1,
                        ']' => {
                            d -= 1;
                            if d == 0 {
                                k += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
            } else {
                break;
            }
        }
        let mut end = k;
        let mut brace = 0usize;
        let mut saw_brace = false;
        while end < b.len() {
            match b[end] {
                '{' => {
                    brace += 1;
                    saw_brace = true;
                }
                '}' => {
                    brace -= 1;
                    if brace == 0 {
                        end += 1;
                        break;
                    }
                }
                ';' if !saw_brace => {
                    end += 1;
                    break;
                }
                _ => {}
            }
            end += 1;
        }
        spans.push((attr_start, end));
        i = end;
    }
    spans
}

/// One parameter of an extracted function signature.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (with any `mut` stripped); empty for patterns the
    /// extractor does not model.
    pub name: String,
    /// The parameter's type text, verbatim (masked).
    pub ty: String,
}

/// One function definition extracted from a masked file.
///
/// This is not a parse — just enough signature and body structure for
/// the call-graph pass: who the function is (`Type::name` when inside
/// an `impl` block), what it takes (so guard moves and callback
/// parameters can be modeled), what it returns (guard smuggling), and
/// where its body is (a char span into the masked text).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare name.
    pub name: String,
    /// `Type::name` inside an `impl Type` block, else `name`.
    pub qualified: String,
    /// Enclosing impl type, if any.
    pub self_type: Option<String>,
    /// Parameters (excluding any `self` receiver).
    pub params: Vec<Param>,
    /// Generic-parameter and `where`-clause text (for `Fn` bounds).
    pub bounds: String,
    /// Return-type text (empty for `()`).
    pub ret: String,
    /// Char span (half-open) of the body in the masked text, if the
    /// item has one (trait declarations do not).
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
}

/// Extract every function definition in `masked` (see [`FnDef`]).
///
/// Tracks `impl` blocks so methods get qualified names; `impl Trait for
/// Type` attributes methods to `Type`. Nested functions are not
/// descended into (their bodies stay part of the enclosing span).
pub fn functions(masked: &str) -> Vec<FnDef> {
    let b: Vec<char> = masked.chars().collect();
    let mut line_of = Vec::with_capacity(b.len());
    {
        let mut ln = 1usize;
        for &c in &b {
            line_of.push(ln);
            if c == '\n' {
                ln += 1;
            }
        }
    }
    let mut out = Vec::new();
    // (type name, brace depth its block opened at)
    let mut impls: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < b.len() {
        match b[i] {
            '{' => {
                depth += 1;
                i += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                while impls.last().is_some_and(|&(_, d)| d > depth) {
                    impls.pop();
                }
                i += 1;
            }
            'i' if word_at(&b, i, "impl") => {
                // Parse the impl header up to its `{`.
                let start = i + 4;
                let mut j = start;
                while j < b.len() && b[j] != '{' && b[j] != ';' {
                    j += 1;
                }
                let header: String = b[start..j].iter().collect();
                if b.get(j) == Some(&'{') {
                    if let Some(ty) = impl_type(&header) {
                        impls.push((ty, depth + 1));
                    }
                    depth += 1;
                    i = j + 1;
                } else {
                    i = j;
                }
            }
            'f' if word_at(&b, i, "fn") => {
                let line = line_of.get(i).copied().unwrap_or(1);
                // `next` is already past the body's closing brace, so
                // nested `impl`/`fn` keywords inside stay attributed to
                // this item and the impl brace accounting stays intact.
                let (def, next) = parse_fn(&b, i, impls.last().map(|(t, _)| t.as_str()), line);
                if let Some(mut def) = def {
                    def.qualified = match &def.self_type {
                        Some(t) => format!("{t}::{}", def.name),
                        None => def.name.clone(),
                    };
                    out.push(def);
                }
                i = next;
            }
            _ => i += 1,
        }
    }
    out
}

/// Extract `field name → type head` pairs from every struct definition
/// in `masked` (`extents: Vec<Extent>` → `("extents", "Vec")`). Used to
/// type method receivers like `part.extents.push(…)`.
pub fn struct_fields(masked: &str) -> Vec<(String, String)> {
    let b: Vec<char> = masked.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        if !word_at(&b, i, "struct") {
            i += 1;
            continue;
        }
        let mut j = i + 6;
        // Name + optional generics, up to `{`, `(`, or `;`.
        while j < b.len() && b[j] != '{' && b[j] != '(' && b[j] != ';' {
            j += 1;
        }
        if b.get(j) != Some(&'{') {
            // Tuple or unit struct: no named fields.
            i = j + 1;
            continue;
        }
        let Some(end) = matching_brace(&b, j) else {
            break;
        };
        let body: String = b[j + 1..end].iter().collect();
        for field in split_top_level(&body, ',') {
            let Some(colon) = field.find(':') else {
                continue;
            };
            let name = field[..colon]
                .split_whitespace()
                .next_back()
                .unwrap_or("")
                .to_string();
            let head = field_type_head(&field[colon + 1..]);
            if !name.is_empty() && !head.is_empty() {
                out.push((name, head));
            }
        }
        i = end + 1;
    }
    out
}

/// First path segment of a type (`Vec<Extent>` → `Vec`, `&mut T` → `T`).
pub fn type_head(ty: &str) -> String {
    let t = ty
        .trim()
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim_start_matches("'static ")
        .trim();
    // Skip a leading lifetime.
    let t = match t.strip_prefix('\'') {
        Some(rest) => rest
            .split_once(char::is_whitespace)
            .map(|(_, r)| r)
            .unwrap_or(""),
        None => t,
    };
    t.chars().take_while(|&c| is_ident(c)).collect::<String>()
}

/// The type a field's methods resolve on: its head, seen through the
/// `Option`/`Arc`/`Box`/`Rc` wrappers that auto-deref or an
/// `if let Some(x) = &self.x` binding looks through
/// (`Option<Arc<HybridStore>>` → `HybridStore`).
pub fn field_type_head(ty: &str) -> String {
    let mut t = ty.trim();
    let mut head = type_head(t);
    while matches!(head.as_str(), "Option" | "Arc" | "Box" | "Rc") {
        let Some(inner) = t
            .find('<')
            .zip(t.rfind('>'))
            .and_then(|(o, c)| t.get(o + 1..c))
        else {
            break;
        };
        t = inner.trim();
        head = type_head(t);
    }
    head
}

/// The last top-level type argument of a generic type, as a head name
/// (`MutexGuard<'a, Inner>` → `Inner`). Empty when there are none.
pub fn last_type_arg(ty: &str) -> String {
    let Some(open) = ty.find('<') else {
        return String::new();
    };
    let Some(close) = ty.rfind('>') else {
        return String::new();
    };
    if close <= open {
        return String::new();
    }
    let inner = &ty[open + 1..close];
    split_top_level(inner, ',')
        .into_iter()
        .map(|s| s.trim().to_string())
        .rfind(|s| !s.starts_with('\''))
        .map(|s| type_head(&s))
        .unwrap_or_default()
}

/// Split `s` on `sep` at zero `()`/`[]`/`{}`/`<>` nesting depth. Angle
/// brackets are tracked `->`-aware so `Fn() -> T` does not desync.
pub fn split_top_level(s: &str, sep: char) -> Vec<String> {
    let b: Vec<char> = s.chars().collect();
    let mut out = Vec::new();
    let mut start = 0usize;
    let (mut par, mut ang) = (0isize, 0isize);
    for (k, &c) in b.iter().enumerate() {
        match c {
            '(' | '[' | '{' => par += 1,
            ')' | ']' | '}' => par -= 1,
            '<' => ang += 1,
            '>' if k == 0 || b[k - 1] != '-' => ang -= 1,
            c if c == sep && par == 0 && ang <= 0 => {
                out.push(b[start..k].iter().collect());
                start = k + 1;
            }
            _ => {}
        }
    }
    let tail: String = b[start..].iter().collect();
    if !tail.trim().is_empty() {
        out.push(tail);
    }
    out
}

/// Offset of the `}` matching the `{` at `open` (tracking all three
/// bracket kinds), if balanced.
pub fn matching_brace(b: &[char], open: usize) -> Option<usize> {
    let close = match b.get(open) {
        Some('{') => '}',
        Some('(') => ')',
        Some('[') => ']',
        _ => return None,
    };
    let opener = b[open];
    let mut depth = 0isize;
    for (k, &c) in b.iter().enumerate().skip(open) {
        if c == opener {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

fn word_at(b: &[char], i: usize, word: &str) -> bool {
    let w: Vec<char> = word.chars().collect();
    if i + w.len() > b.len() || b[i..i + w.len()] != w[..] {
        return false;
    }
    let before_ok = i == 0 || !is_ident(b[i - 1]);
    let after_ok = b.get(i + w.len()).is_none_or(|&c| !is_ident(c));
    before_ok && after_ok
}

/// The implemented type of an impl header (`<T> DispatchQueue<T>` →
/// `DispatchQueue`, `fmt::Display for Finding` → `Finding`).
fn impl_type(header: &str) -> Option<String> {
    let mut rest = header.trim();
    // Skip leading generic parameters.
    if rest.starts_with('<') {
        let b: Vec<char> = rest.chars().collect();
        let mut depth = 0isize;
        let mut end = 0usize;
        for (k, &c) in b.iter().enumerate() {
            match c {
                '<' => depth += 1,
                '>' if k == 0 || b[k - 1] != '-' => {
                    depth -= 1;
                    if depth == 0 {
                        end = k + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = rest.get(end..).unwrap_or("").trim();
    }
    // `Trait for Type` → take the Type side; strip any where clause.
    let target = match rest.find(" for ") {
        Some(p) => &rest[p + 5..],
        None => rest,
    };
    let target = target.split(" where ").next().unwrap_or(target).trim();
    // Last path segment before generics: `lru::LruCache<K>` → `LruCache`.
    let no_generics = target.split('<').next().unwrap_or(target);
    let seg = no_generics.rsplit("::").next().unwrap_or(no_generics);
    let name: String = seg.trim().chars().take_while(|&c| is_ident(c)).collect();
    (!name.is_empty()).then_some(name)
}

/// Parse one `fn` starting at offset `i` (the `fn` keyword). Returns
/// the definition (if well-formed) and the offset to resume scanning at
/// (past the body when there is one).
fn parse_fn(b: &[char], i: usize, self_type: Option<&str>, line: usize) -> (Option<FnDef>, usize) {
    let mut j = i + 2;
    while j < b.len() && b[j].is_whitespace() {
        j += 1;
    }
    let name_start = j;
    while j < b.len() && is_ident(b[j]) {
        j += 1;
    }
    let name: String = b[name_start..j].iter().collect();
    if name.is_empty() {
        return (None, j);
    }
    let mut bounds = String::new();
    // Generic parameters (angle-balanced, `->`-aware).
    if b.get(j) == Some(&'<') {
        let mut depth = 0isize;
        let start = j;
        while j < b.len() {
            match b[j] {
                '<' => depth += 1,
                '>' if j == 0 || b[j - 1] != '-' => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        bounds.push_str(&b[start..j].iter().collect::<String>());
    }
    while j < b.len() && b[j].is_whitespace() {
        j += 1;
    }
    if b.get(j) != Some(&'(') {
        return (None, j);
    }
    let Some(close) = matching_brace(b, j) else {
        return (None, j + 1);
    };
    let params_text: String = b[j + 1..close].iter().collect();
    let params = split_top_level(&params_text, ',')
        .into_iter()
        .filter_map(|p| {
            let p = p.trim();
            if p == "self" || p.ends_with("self") && !p.contains(':') {
                return None;
            }
            let (name_part, ty) = p.split_once(':')?;
            let name = name_part
                .split_whitespace()
                .next_back()
                .unwrap_or("")
                .to_string();
            Some(Param {
                name,
                ty: ty.trim().to_string(),
            })
        })
        .collect();
    // Return type and where clause, up to `{` or `;`.
    let mut k = close + 1;
    while k < b.len() && b[k] != '{' && b[k] != ';' {
        k += 1;
    }
    let sig_tail: String = b[close + 1..k].iter().collect();
    let (ret, where_clause) = match sig_tail.find(" where ") {
        Some(p) => (sig_tail[..p].to_string(), sig_tail[p..].to_string()),
        None => (sig_tail.clone(), String::new()),
    };
    bounds.push_str(&where_clause);
    let ret = ret.trim().trim_start_matches("->").trim().to_string();
    let (body, next) = if b.get(k) == Some(&'{') {
        match matching_brace(b, k) {
            Some(end) => (Some((k + 1, end)), end + 1),
            None => (None, k + 1),
        }
    } else {
        (None, k + 1)
    };
    (
        Some(FnDef {
            qualified: String::new(),
            name,
            self_type: self_type.map(str::to_string),
            params,
            bounds,
            ret,
            body,
            line,
        }),
        next,
    )
}

/// Does `haystack` contain `word` delimited by non-identifier chars?
pub fn has_word(haystack: &str, word: &str) -> bool {
    let h: Vec<char> = haystack.chars().collect();
    let w: Vec<char> = word.chars().collect();
    if w.is_empty() || h.len() < w.len() {
        return false;
    }
    for start in 0..=h.len() - w.len() {
        if h[start..start + w.len()] == w[..] {
            let before_ok = start == 0 || !is_ident(h[start - 1]);
            let after = start + w.len();
            let after_ok = after == h.len() || !is_ident(h[after]);
            if before_ok && after_ok {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let src = "let x = \"unwrap() inside\"; // unwrap() comment\nlet y = 1; /* panic! */";
        let m = mask(src);
        assert!(!m.contains("unwrap"));
        assert!(!m.contains("panic"));
        assert!(m.contains("let x = \""));
        assert_eq!(m.chars().count(), src.chars().count());
    }

    #[test]
    fn masks_raw_strings_and_chars() {
        let src = r##"let r = r#"panic!("x")"#; let c = 'x'; let l: &'static str = "";"##;
        let m = mask(src);
        assert!(!m.contains("panic"));
        assert!(m.contains("&'static str"), "lifetimes survive: {m}");
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* a /* b */ unwrap() */ let z = 3;";
        let m = mask(src);
        assert!(!m.contains("unwrap"));
        assert!(m.contains("let z = 3;"));
    }

    #[test]
    fn cfg_test_region_is_flagged() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn live2() {}\n";
        let f = scan(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[5].in_test, "code after the test mod is live");
    }

    #[test]
    fn cfg_all_loom_test_region_is_flagged() {
        let src = "#[cfg(all(loom, test))]\nmod loom_models { fn m() {} }\nfn live() {}\n";
        let f = scan(src);
        assert!(f.lines[1].in_test);
        assert!(!f.lines[2].in_test);
    }

    #[test]
    fn cfg_not_test_is_live() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n";
        let f = scan(src);
        assert!(!f.lines[1].in_test);
    }

    #[test]
    fn word_boundaries() {
        assert!(has_word("cfg(all(loom, test))", "test"));
        assert!(!has_word("cfg(testing)", "test"));
        assert!(!has_word("latest", "test"));
    }

    #[test]
    fn test_outside_not_groups() {
        assert!(has_test_outside_not("cfg(test)"));
        assert!(has_test_outside_not("cfg(all(test, loom))"));
        assert!(has_test_outside_not("cfg(all(test, not(loom)))"));
        assert!(!has_test_outside_not("cfg(not(test))"));
        assert!(!has_test_outside_not("cfg(all(not(test), loom))"));
        assert!(!has_test_outside_not("cfg(attest)"));
    }

    #[test]
    fn cfg_test_with_not_loom_is_a_test_region() {
        let src = "#[cfg(all(test, not(loom)))]\nmod tests { fn f() { x.unwrap(); } }\n";
        let f = scan(src);
        assert!(f.lines[1].in_test);
    }

    #[test]
    fn cfg_test_on_impl_block_covers_every_method() {
        let src = "struct S;\n#[cfg(test)]\nimpl S {\n    fn helper(&self) { x.unwrap(); }\n    fn other(&self) {}\n}\nimpl S { fn live(&self) {} }\n";
        let f = scan(src);
        assert!(f.lines[3].in_test, "method inside #[cfg(test)] impl");
        assert!(f.lines[4].in_test, "second method too");
        assert!(!f.lines[6].in_test, "the next impl block is live");
    }

    #[test]
    fn raw_string_braces_do_not_derail_function_extraction() {
        let src = "fn f() { let s = r#\"fn ghost() { }\"#; }\nfn real() { g(); }\n";
        let defs = functions(&mask(src));
        let names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["f", "real"], "no phantom fn from the raw string");
        let real = &defs[1];
        assert_eq!(real.line, 2);
        assert!(real.body.is_some());
    }

    #[test]
    fn char_literal_close_brace_does_not_derail_extraction() {
        let src = "fn f() { let c = '}'; let o = '{'; }\nimpl S { fn m(&self) {} }\n";
        let defs = functions(&mask(src));
        assert_eq!(defs.len(), 2, "{defs:?}");
        assert_eq!(
            defs[1].qualified, "S::m",
            "impl attribution survives the literals"
        );
    }

    #[test]
    fn lifetimes_survive_extraction_where_char_literals_are_masked() {
        let src = "fn f<'a>(x: &'a str, c: char) -> &'a str { let q = 'a'; x }\n";
        let defs = functions(&mask(src));
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].params.len(), 2);
        assert_eq!(defs[0].params[0].ty, "&'a str", "lifetime kept in the type");
        assert!(defs[0].ret.contains("&'a str"));
    }

    #[test]
    fn nested_fn_and_impl_keep_outer_attribution() {
        let src = "impl S {\n    fn outer(&self) {\n        fn inner() {}\n    }\n    fn after(&self) {}\n}\n";
        let defs = functions(&mask(src));
        let quals: Vec<&str> = defs.iter().map(|d| d.qualified.as_str()).collect();
        assert!(quals.contains(&"S::outer"));
        assert!(
            quals.contains(&"S::after"),
            "the impl stack survives a nested fn: {quals:?}"
        );
    }

    #[test]
    fn struct_fields_extracts_names_and_types() {
        let src =
            "pub struct Merger {\n    qps: Mutex<Vec<QueuePair>>,\n    pd: ProtectionDomain,\n}\n";
        let fields = struct_fields(&mask(src));
        assert!(fields
            .iter()
            .any(|(n, t)| n == "qps" && t.contains("Mutex")));
        assert!(fields
            .iter()
            .any(|(n, t)| n == "pd" && t == "ProtectionDomain"));
    }

    #[test]
    fn field_heads_see_through_option_and_pointer_wrappers() {
        assert_eq!(field_type_head(" Option<Arc<HybridStore>>"), "HybridStore");
        assert_eq!(field_type_head("Arc<Mutex<Vec<u8>>>"), "Mutex");
        assert_eq!(field_type_head("Vec<Arc<Waker>>"), "Vec");
        assert_eq!(field_type_head("Option<u64>"), "u64");
    }
}
