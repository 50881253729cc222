//! The workspace's source gates: rules about this repository's own code
//! that the replay digests, the §IV-D audit and the subtraction contract
//! depend on, checked by tier-1 `cargo test`.
//!
//! Every gate reads the tree through one lexer ([`lex`]): identifiers,
//! `::` and the other punctuation and literals, each with its line.
//! Comments are dropped and a string literal is one token, so text in a
//! comment or a string neither trips a gate nor satisfies one.
//! `#[cfg(test)]` items and modules are found by brace depth
//! ([`test_spans`]), wherever they sit in a file. A gate returns one
//! `path:line: what` finding per violation; each has a self-test that
//! plants a violation in an in-memory source and checks the same text
//! inside a comment or a string.
//!
//! The gates are by name, like the rules they enforce: a name shared
//! with another item passes. Clippy and the `forbid(unsafe_code)` check
//! stay in `scripts/verify.sh --lint`, which also runs this file.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

// ---- Lexer ------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Ident,
    Punct,
    /// A string, byte-string or raw-string literal; `text` is its body.
    Str,
    /// A number or char literal.
    Lit,
    Lifetime,
}

#[derive(Clone, Copy, Debug)]
struct Tok<'a> {
    kind: Kind,
    text: &'a str,
    line: usize,
}

impl<'a> Tok<'a> {
    /// The token's text when it is code (an identifier or punctuation),
    /// so a literal never matches a pattern.
    fn code(&self) -> Option<&'a str> {
        matches!(self.kind, Kind::Ident | Kind::Punct).then_some(self.text)
    }

    fn is(&self, text: &str) -> bool {
        self.code() == Some(text)
    }
}

/// Multi-character punctuation, longest first. `<` and `>` are always
/// single so that `Vec<Vec<u8>>` closes two generics.
const PUNCT: [&str; 17] = [
    "..=", "::", "==", "!=", "=>", "->", "&&", "||", "+=", "-=", "*=", "/=", "%=", "^=", "&=",
    "|=", "..",
];

fn ident_byte(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

fn utf8_len(first: u8) -> usize {
    match first {
        0..=0x7F => 1,
        0x80..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Where a string literal starting at `i` opens: the index of its `"`,
/// its count of `#`s and whether it is raw. Covers `"…"`, `b"…"`,
/// `c"…"`, `r"…"`, `r#"…"#`, `br#"…"#` and `cr#"…"#`.
fn string_open(b: &[u8], i: usize) -> Option<(usize, usize, bool)> {
    let mut j = i;
    if matches!(b[j], b'b' | b'c') {
        j += 1;
    }
    let raw = b.get(j) == Some(&b'r');
    if raw {
        j += 1;
    }
    let hashes = b[j.min(b.len())..].iter().take_while(|&&c| c == b'#').count();
    (b.get(j + hashes) == Some(&b'"') && (raw || hashes == 0)).then_some((j + hashes, hashes, raw))
}

/// Splits `src` into tokens, dropping whitespace and every comment.
fn lex(src: &str) -> Vec<Tok<'_>> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let (mut i, mut line) = (0, 1);
    while i < b.len() {
        let (start, first_line, c) = (i, line, b[i]);
        let kind = if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        } else if c.is_ascii_whitespace() {
            i += 1;
            continue;
        } else if b[i..].starts_with(b"//") {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            continue;
        } else if b[i..].starts_with(b"/*") {
            let mut depth = 0;
            while i < b.len() {
                if b[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if b[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    line += usize::from(b[i] == b'\n');
                    i += 1;
                }
            }
            continue;
        } else if let Some((open, hashes, raw)) = string_open(b, i) {
            i = open + 1;
            let close = loop {
                match b.get(i) {
                    None => break b.len(),
                    Some(b'\\') if !raw => {
                        line += usize::from(b.get(i + 1) == Some(&b'\n'));
                        i += 2;
                    }
                    Some(b'"')
                        if b[i + 1..].iter().take(hashes).filter(|&&c| c == b'#').count()
                            == hashes =>
                    {
                        break i;
                    }
                    Some(&c) => {
                        line += usize::from(c == b'\n');
                        i += 1;
                    }
                }
            };
            i = (close + 1 + hashes).min(b.len());
            toks.push(Tok { kind: Kind::Str, text: &src[open + 1..close], line: first_line });
            continue;
        } else if c == b'\'' || (c == b'b' && b.get(i + 1) == Some(&b'\'')) {
            // A char literal, or a lifetime or label (`'a` with no closing quote).
            let j = if c == b'b' { i + 2 } else { i + 1 };
            if b.get(j) == Some(&b'\\') {
                i = j + 2;
                while i < b.len() && b[i] != b'\'' {
                    i += 1;
                }
                i = (i + 1).min(b.len());
                Kind::Lit
            } else if b.get(j).is_some_and(|&c| b.get(j + utf8_len(c)) == Some(&b'\'')) {
                i = j + utf8_len(b[j]) + 1;
                Kind::Lit
            } else {
                i = j;
                while i < b.len() && ident_byte(b[i]) {
                    i += 1;
                }
                Kind::Lifetime
            }
        } else if c == b'_' || c.is_ascii_alphabetic() {
            // `r#name` is the identifier `name`.
            let raw_ident = c == b'r' && b.get(i + 1) == Some(&b'#');
            i += if raw_ident { 2 } else { 0 };
            let name = i;
            while i < b.len() && ident_byte(b[i]) {
                i += 1;
            }
            toks.push(Tok { kind: Kind::Ident, text: &src[name..i], line });
            continue;
        } else if c.is_ascii_digit() {
            while i < b.len() && ident_byte(b[i]) {
                i += 1;
            }
            if b.get(i) == Some(&b'.') && b.get(i + 1).is_some_and(u8::is_ascii_digit) {
                i += 1;
                while i < b.len() && ident_byte(b[i]) {
                    i += 1;
                }
            }
            Kind::Lit
        } else {
            i += PUNCT
                .iter()
                .find(|p| b[i..].starts_with(p.as_bytes()))
                .map_or(utf8_len(c), |p| p.len());
            Kind::Punct
        };
        toks.push(Tok { kind, text: &src[start..i], line: first_line });
    }
    toks
}

/// Whether the tokens from `i` on read `pattern`, one code token each.
fn seq(toks: &[Tok], i: usize, pattern: &[&str]) -> bool {
    toks.len() >= i + pattern.len() && toks[i..].iter().zip(pattern).all(|(t, p)| t.is(p))
}

/// The `[start, end)` token spans of the outermost `#[cfg(test)]` items
/// and modules. Such an item runs from its attribute to the `}` that
/// closes its first top-level brace or to its top-level `;`, whichever
/// comes first; a `#![cfg(test)]` covers the rest of the block it sits
/// in.
fn test_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let inner = seq(toks, i, &["#", "!", "[", "cfg", "(", "test", ")", "]"]);
        if !inner && !seq(toks, i, &["#", "[", "cfg", "(", "test", ")", "]"]) {
            i += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut end = toks.len();
        for (j, t) in toks.iter().enumerate().skip(i) {
            match t.code() {
                Some("{" | "(" | "[") => depth += 1,
                Some(closer @ ("}" | ")" | "]")) => {
                    depth -= 1;
                    if depth < 0 {
                        end = j;
                        break;
                    }
                    if depth == 0 && closer == "}" && !inner {
                        end = j + 1;
                        break;
                    }
                }
                Some(";") if depth == 0 && !inner => {
                    end = j + 1;
                    break;
                }
                _ => {}
            }
        }
        spans.push((i, end));
        i = end;
    }
    spans
}

/// The tokens outside `#[cfg(test)]` items and modules ([`test_spans`]).
fn split_tests<'a>(toks: &[Tok<'a>]) -> Vec<Tok<'a>> {
    let mut code = Vec::with_capacity(toks.len());
    let mut from = 0;
    for (start, end) in test_spans(toks) {
        code.extend_from_slice(&toks[from..start]);
        from = end;
    }
    code.extend_from_slice(&toks[from..]);
    code
}

// ---- The tree ---------------------------------------------------------------

/// One lexed source file.
struct File<'a> {
    /// Relative to the repository root, `/`-separated.
    path: &'a str,
    src: &'a str,
    toks: Vec<Tok<'a>>,
    /// `toks` without its `#[cfg(test)]` items.
    code: Vec<Tok<'a>>,
}

impl<'a> File<'a> {
    fn new(path: &'a str, src: &'a str) -> Self {
        let toks = lex(src);
        let code = split_tests(&toks);
        File { path, src, toks, code }
    }

    fn at(&self, line: usize, what: impl std::fmt::Display) -> String {
        format!("{}:{line}: {what}", self.path)
    }

    /// Whether the file lies under one of `roots`.
    fn under(&self, roots: &[&str]) -> bool {
        roots.iter().any(|r| self.path.strip_prefix(r).is_some_and(|rest| rest.starts_with('/')))
    }

    /// Whether the file lies under `crates/<name>/<dir>/`.
    fn in_crates(&self, dir: &str) -> bool {
        let mut parts = self.path.split('/');
        parts.next() == Some("crates") && parts.next().is_some() && parts.next() == Some(dir)
    }
}

/// Where the gates look: every `.rs` file below these directories.
const ROOTS: [&str; 5] = ["src", "crates", "tests", "examples", "benchmark/src"];

/// The repository's sources, read and lexed once per test binary.
fn tree() -> &'static [File<'static>] {
    static TREE: OnceLock<Vec<File<'static>>> = OnceLock::new();
    fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) {
        for entry in fs::read_dir(dir).expect("a source directory is readable") {
            let path = entry.expect("a directory entry is readable").path();
            if path.is_dir() && !path.ends_with("target") {
                walk(root, &path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).expect("walked below the root");
                out.push(rel.to_string_lossy().into_owned());
            }
        }
    }
    TREE.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut paths = Vec::new();
        for dir in ROOTS {
            walk(root, &root.join(dir), &mut paths);
        }
        paths.sort();
        paths
            .into_iter()
            .map(|rel| {
                let src = fs::read_to_string(root.join(&rel)).expect("a source file is UTF-8");
                File::new(rel.leak(), src.leak())
            })
            .collect()
    })
}

// ---- The gates --------------------------------------------------------------

type Gate = fn(&[File]) -> Vec<String>;

/// No host clock and no ambient entropy anywhere in the workspace:
/// every schedule digest, the telemetry digest the audit chains and both
/// checked-in reports assume virtual time (the simulator `Clock`) and
/// seeded randomness (the DRBG). Host time is measured from outside, by
/// `benchmark/`.
fn determinism(tree: &[File]) -> Vec<String> {
    let mut found = Vec::new();
    for f in tree.iter().filter(|f| f.under(&["src", "crates", "tests", "examples"])) {
        let mut last = 0;
        for (i, t) in f.toks.iter().enumerate() {
            let hit = match t.code() {
                Some("SystemTime" | "getrandom" | "from_entropy") => true,
                Some("Instant") => seq(&f.toks, i + 1, &["::", "now"]),
                Some("std") => seq(&f.toks, i + 1, &["::", "time", "::", "Instant"]),
                Some("rand") => seq(&f.toks, i + 1, &["::"]),
                _ => false,
            };
            if hit && t.line != last {
                found.push(f.at(t.line, format!("host time or ambient entropy (`{}`)", t.text)));
                last = t.line;
            }
        }
    }
    found
}

/// The files that may start host threads, each for its reason. Each
/// thread computes a pure function of its inputs; one anywhere else could
/// make a digest depend on how the host scheduled it.
const THREAD_FILES: [(&str, &str); 2] = [
    ("crates/core/src/pool.rs", "a pool worker runs one prepared task on a private clock"),
    (
        "crates/oram/src/path_oram.rs",
        "the crypto lane opens or seals half a path under nonces it is handed",
    ),
];

/// `thread::{spawn, scope, Builder}` under `crates/*/src` and `src`
/// only in [`THREAD_FILES`].
fn threads(tree: &[File]) -> Vec<String> {
    let mut found = Vec::new();
    for f in tree.iter().filter(|f| f.in_crates("src") || f.under(&["src"])) {
        if THREAD_FILES.iter().any(|(path, _)| *path == f.path) {
            continue;
        }
        for (i, t) in f.toks.iter().enumerate() {
            if t.is("thread")
                && ["spawn", "scope", "Builder"].iter().any(|s| seq(&f.toks, i + 1, &["::", s]))
            {
                found.push(f.at(
                    t.line,
                    "a host thread outside the worker pool and the ORAM crypto lane",
                ));
            }
        }
    }
    found
}

/// No `Vec<Vec<u8>>` in non-test code under `crates/oram/src`: the §IV-D
/// wire shape is fixed at boot, `(height + 1) · Z` slots of
/// `OramConfig::slot_len` bytes, and client, server and both backends
/// move it as one flat buffer and slices of it. A nested vector on that
/// route brings back a per-slot allocation and a length to re-check at
/// every hand-off.
fn path_shape(tree: &[File]) -> Vec<String> {
    let mut found = Vec::new();
    for f in tree.iter().filter(|f| f.under(&["crates/oram/src"])) {
        for (i, t) in f.code.iter().enumerate() {
            if seq(&f.code, i, &["Vec", "<", "Vec", "<", "u8", ">", ">"]) {
                found.push(f.at(t.line, "a nested slot vector (`Vec<Vec<u8>>`)"));
            }
        }
    }
    found
}

/// Fields of a `…Config` exempt from [`options`], each for its reason.
/// `None` exempts every field of the struct.
const OPTIONS_ALLOWED: [(&str, Option<&str>, &str); 8] = [
    (
        "ServiceConfig",
        Some("security"),
        "the rung of the security ladder (Fig. 4): every caller picks it through `ServiceConfig::at_level`, which sets it in the field's own file",
    ),
    (
        "HevmConfig",
        Some("cost"),
        "DESIGN §2's table of model constants (`CostModel`, as for `MemoryConfig`), carried as one value so the engine, the service and the gateway read one table",
    ),
    (
        "DiskStoreConfig",
        Some("dir"),
        "a deployment path: every caller passes its own directory to `DiskStoreConfig::new`",
    ),
    (
        "DiskStoreConfig",
        Some("wal_trim_every"),
        "ROADMAP item 3's shim: the frozen benchmark/ still reads it; it goes when that does",
    ),
    (
        "DiskStoreConfig",
        Some("segment_roll_bytes"),
        "the tier-1 kill matrix needs 4 KiB segments to cross a segment roll",
    ),
    (
        "DiskStoreConfig",
        Some("verify_checksums"),
        "the checksum negative control; item 1 turns it into the root-check ablation",
    ),
    (
        "ServiceConfig",
        Some("hevm_count"),
        "only tests set a second value, but the frozen benchmark/ reads it; it becomes a constant with the next change to benchmark/",
    ),
    (
        "MemoryConfig",
        None,
        "DESIGN §2's table of model constants, like `CostModel`: the synthesized geometry, not deployment options",
    ),
];

/// The `(struct, field)` pairs a file's non-test code assigns:
/// `field: value` directly inside a brace that is not a `struct` /
/// `enum` / `union` body (a struct literal or pattern), a shorthand
/// `field` directly inside a struct literal (a brace after a capitalised
/// path, outside an item header or a condition), or `.field = value` /
/// `.field.sub = value`. A literal's struct is the path's last name, or
/// the `impl`'s type for `Self`; it is `None`, matching any struct, for
/// `.field` (the lexer has no types) and for a brace after no path.
fn assigned_fields<'a>(f: &File<'a>) -> HashSet<(Option<&'a str>, &'a str)> {
    #[derive(PartialEq)]
    enum Frame<'a> {
        Declaration,
        Literal(Option<&'a str>),
        Expression,
        Group,
    }
    let toks = &f.code;
    // Per open delimiter: its frame, and the type of the impl it opens.
    let mut frames: Vec<(Frame, Option<&str>)> = Vec::new();
    let mut pending = None;
    let mut set = HashSet::new();
    for (i, t) in toks.iter().enumerate() {
        match t.code() {
            Some("impl")
                if i == 0
                    || matches!(toks[i - 1].code(), Some("}" | ";" | "{" | "]" | "unsafe")) =>
            {
                pending = Some(impl_header(toks, i).0);
            }
            Some("{") => {
                let start = toks[..i]
                    .iter()
                    .rposition(|p| matches!(p.code(), Some(";" | "{" | "}")))
                    .map_or(0, |s| s + 1);
                let declares = frames.last().is_some_and(|f| f.0 == Frame::Declaration)
                    || (start..i).any(|j| {
                        matches!(toks[j].code(), Some("struct" | "enum" | "union"))
                            && toks[j + 1].kind == Kind::Ident
                    });
                let path = toks[..i].last().filter(|p| {
                    p.kind == Kind::Ident && p.text.starts_with(|c: char| c.is_ascii_uppercase())
                });
                let literal = path.is_some()
                    && !toks[start..i].iter().any(|t| {
                        matches!(t.code(), Some("fn" | "impl" | "trait" | "if" | "while" | "match"))
                    });
                let frame = match (declares, literal) {
                    (true, _) => Frame::Declaration,
                    (false, true) => Frame::Literal(match path.map(|p| p.text) {
                        Some("Self") => frames.iter().rev().find_map(|f| f.1),
                        name => name,
                    }),
                    (false, false) => Frame::Expression,
                };
                frames.push((frame, pending.take()));
            }
            Some("(" | "[") => frames.push((Frame::Group, None)),
            Some("}" | ")" | "]") => {
                frames.pop();
            }
            Some(".") => {
                let Some(field) = toks.get(i + 1).filter(|n| n.kind == Kind::Ident) else {
                    continue;
                };
                let mut j = i + 2;
                while seq(toks, j, &["."]) && toks.get(j + 1).is_some_and(|n| n.kind == Kind::Ident)
                {
                    j += 2;
                }
                if seq(toks, j, &["="]) {
                    set.insert((None, field.text));
                }
            }
            _ if t.kind == Kind::Ident && i > 0 && matches!(toks[i - 1].code(), Some("{" | ",")) => {
                match frames.last() {
                    Some((Frame::Literal(name), _))
                        if [":", ",", "}"].iter().any(|p| seq(toks, i + 1, &[p])) =>
                    {
                        set.insert((*name, t.text));
                    }
                    Some((Frame::Expression, _)) if seq(toks, i + 1, &[":"]) => {
                        set.insert((None, t.text));
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    set
}

/// Every `pub` field of a `pub struct …Config` under `crates/*/src` is
/// assigned by program code in a file other than the one that defines
/// it — in a literal or pattern of that struct (`Self` inside its
/// `impl`), or by name as `.field = value` — non-test code under `crates/*/src` (the `repro` binary in
/// `crates/bench` included), `src/` or `benchmark/src`. A field only its
/// own `Default` sets is a constant wearing a config's clothes, and it
/// multiplies the configurations tests must cover for nothing. A test's
/// assignment (`tests/`, `crates/*/tests/`, `examples/`, `#[cfg(test)]`)
/// is no second caller: it covers a configuration nothing deploys.
fn options(tree: &[File]) -> Vec<String> {
    let program = |f: &File| f.in_crates("src") || f.under(&["src", "benchmark/src"]);
    let assigned: Vec<HashSet<(Option<&str>, &str)>> = tree
        .iter()
        .map(|f| if program(f) { assigned_fields(f) } else { HashSet::new() })
        .collect();
    let mut found = Vec::new();
    for (d, def) in tree.iter().enumerate().filter(|(_, f)| f.in_crates("src")) {
        let code = &def.code;
        for i in 0..code.len() {
            let Some(name) = code.get(i + 2).filter(|n| {
                seq(code, i, &["pub", "struct"])
                    && n.text.ends_with("Config")
                    && n.text.bytes().all(|c| c.is_ascii_alphabetic())
                    && seq(code, i + 3, &["{"])
            }) else {
                continue;
            };
            let mut depth = 0;
            for (j, t) in code.iter().enumerate().skip(i + 3) {
                match t.code() {
                    Some("{" | "(" | "[") => depth += 1,
                    Some("}" | ")" | "]") => depth -= 1,
                    _ => {}
                }
                if depth == 0 {
                    break;
                }
                let declared = depth == 1
                    && seq(code, j, &["pub"])
                    && seq(code, j + 2, &[":"])
                    && code[j + 1].kind == Kind::Ident;
                if !declared {
                    continue;
                }
                let field = code[j + 1];
                let allowed = OPTIONS_ALLOWED
                    .iter()
                    .any(|(s, f, _)| *s == name.text && f.is_none_or(|f| f == field.text));
                let elsewhere = assigned.iter().enumerate().any(|(k, set)| {
                    k != d
                        && (set.contains(&(Some(name.text), field.text))
                            || set.contains(&(None, field.text)))
                });
                if !allowed && !elsewhere {
                    found.push(def.at(
                        field.line,
                        format!(
                            "{}::{} is set by no program code outside its own file",
                            name.text, field.text
                        ),
                    ));
                }
            }
        }
    }
    found
}

/// The file whose lower half pool workers run, and the comment that
/// opens that half.
const SEGMENT: &str = "crates/core/src/service/segment.rs";
const EXECUTE_HALF: &str = "// ---- The execute half";

/// The execute half of `service/segment.rs` (what a pool worker runs,
/// against an `ExecCtx`, a private clock and a `TaskBuffer`) names
/// neither `HarDTape` nor `UserHandle`: the moment it mentions the device
/// or a session it has a path back to shared mutable state. And
/// `crates/core/src` carries no `too_many_arguments` or `type_complexity`
/// waiver: a 16-parameter driver came from threading one value through
/// as six, and the waiver is the symptom.
fn seam(tree: &[File]) -> Vec<String> {
    let mut found = Vec::new();
    for f in tree.iter().filter(|f| f.path == SEGMENT) {
        // The marker's line number, counted from 1 like a token's.
        let Some(marker) = f.src.lines().position(|l| l.starts_with(EXECUTE_HALF)).map(|i| i + 1)
        else {
            found.push(f.at(1, "lost its execute-half marker"));
            continue;
        };
        let names_device = |t: &&Tok| matches!(t.code(), Some("HarDTape" | "UserHandle"));
        for t in f.toks.iter().filter(|t| t.line >= marker && names_device(t)) {
            found.push(f.at(t.line, format!("the execute half names `{}`", t.text)));
        }
    }
    for f in tree.iter().filter(|f| f.under(&["crates/core/src"])) {
        for (i, t) in f.toks.iter().enumerate() {
            let waiver = ["too_many_arguments", "type_complexity"]
                .iter()
                .any(|w| seq(&f.toks, i, &["clippy", "::", w]));
            if waiver {
                found.push(f.at(t.line, "an argument-count or type-complexity waiver"));
            }
        }
    }
    found
}

/// Items exempt from [`unwired_items`], as `(path, name, reason)`.
const UNWIRED_ALLOWED: [(&str, &str, &str); 0] = [];

/// A `pub` or `pub(crate)` item the code at `i` declares: its keyword
/// (`fn`, `const`, `static`, `struct`, `enum`, `trait` or `type`) and
/// its name.
fn item_at<'a>(code: &[Tok<'a>], i: usize) -> Option<(&'a str, Tok<'a>)> {
    if !code[i].is("pub") {
        return None;
    }
    let mut j = i + 1;
    if seq(code, j, &["(", "crate", ")"]) {
        j += 3;
    }
    loop {
        let t = code.get(j)?;
        let next = code.get(j + 1)?;
        match t.code() {
            Some("const")
                if next.kind == Kind::Ident
                    && !matches!(next.text, "fn" | "unsafe" | "async" | "extern") =>
            {
                return Some(("const", *next));
            }
            Some("const" | "async" | "unsafe" | "extern") => j += 1,
            None if t.kind == Kind::Str => j += 1, // extern "C"
            Some(kw @ ("fn" | "static" | "struct" | "enum" | "trait" | "type")) => {
                let name = if next.is("mut") { code.get(j + 2)? } else { next };
                return (name.kind == Kind::Ident).then_some((kw, *name));
            }
            _ => return None,
        }
    }
}

/// Every `pub` / `pub(crate)` fn, const, static, struct, enum, trait and
/// type in non-test code under `crates/*/src` is named somewhere other
/// than its own tests: in another file of the tree, test code included,
/// or in its own file's non-test code beyond its declaration. A public
/// item only its unit tests use is a second path beside the live one: an
/// A.E.DMA and an interrupt queue that only their own tests called once
/// sat next to the channel every bundle took. Clear a finding by
/// deleting the item, making it a `#[cfg(test)]` helper, or giving it a
/// caller.
fn unwired_items(tree: &[File]) -> Vec<String> {
    let mut files_naming: HashMap<&str, HashSet<usize>> = HashMap::new();
    for (k, f) in tree.iter().enumerate() {
        for t in f.toks.iter().filter(|t| t.kind == Kind::Ident) {
            files_naming.entry(t.text).or_default().insert(k);
        }
    }
    let mut found = Vec::new();
    for (k, f) in tree.iter().enumerate().filter(|(_, f)| f.in_crates("src")) {
        let mut own: HashMap<&str, usize> = HashMap::new();
        for t in f.code.iter().filter(|t| t.kind == Kind::Ident) {
            *own.entry(t.text).or_default() += 1;
        }
        for i in 0..f.code.len() {
            let Some((kw, name)) = item_at(&f.code, i) else {
                continue;
            };
            let elsewhere = files_naming.get(name.text).is_some_and(|s| s.iter().any(|&o| o != k));
            let allowed = UNWIRED_ALLOWED.iter().any(|(p, n, _)| *p == f.path && *n == name.text);
            if !elsewhere && own[name.text] < 2 && !allowed {
                found.push(f.at(
                    name.line,
                    format!("pub {kw} {} is named nowhere but its own tests", name.text),
                ));
            }
        }
    }
    found
}

/// The variants of the enum whose body opens at `code[open]`.
fn variants<'a>(code: &[Tok<'a>], open: usize) -> Vec<Tok<'a>> {
    let (mut depth, mut expect, mut out) = (0, true, Vec::new());
    for t in &code[open.min(code.len())..] {
        match t.code() {
            Some("{" | "(" | "[") => depth += 1,
            Some("}" | ")" | "]") => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Some(",") if depth == 1 => expect = true,
            _ if depth == 1 && expect && t.kind == Kind::Ident => {
                out.push(*t);
                expect = false;
            }
            _ => {}
        }
    }
    out
}

/// Every `pub enum` in non-test code under `crates/*/src`, as `(file,
/// name, variants)`.
fn pub_enums<'t, 'a>(tree: &'t [File<'a>]) -> Vec<(&'t File<'a>, &'a str, Vec<Tok<'a>>)> {
    let mut out = Vec::new();
    for f in tree.iter().filter(|f| f.in_crates("src")) {
        for i in 0..f.code.len() {
            if seq(&f.code, i, &["pub", "enum"]) {
                if let Some(name) = f.code.get(i + 2) {
                    let open =
                        (i + 3..f.code.len()).find(|&j| f.code[j].is("{")).unwrap_or(f.code.len());
                    out.push((f, name.text, variants(&f.code, open)));
                }
            }
        }
    }
    out
}

/// Where non-test code can raise or match a variant.
fn live_code(f: &File) -> bool {
    f.in_crates("src") || f.under(&["src", "examples", "benchmark/src"])
}

/// Variants exempt from [`unwired_variants`], as `(Enum, Variant, reason)`.
const VARIANTS_ALLOWED: [(&str, &str, &str); 0] = [];

/// Every variant of a `pub enum` (other than a `…Error`, which
/// [`error_variants`] holds to a stricter rule) under `crates/*/src` is
/// named by non-test code other than an enum declaration: a case nothing
/// constructs or matches is one every caller must handle and no run can
/// reach.
fn unwired_variants(tree: &[File]) -> Vec<String> {
    let mut named: HashMap<&str, usize> = HashMap::new();
    let mut declared: HashMap<&str, usize> = HashMap::new();
    for f in tree.iter().filter(|f| live_code(f)) {
        for t in f.code.iter().filter(|t| t.kind == Kind::Ident) {
            *named.entry(t.text).or_default() += 1;
        }
        for i in 0..f.code.len() {
            if f.code[i].is("enum") {
                let open = (i..f.code.len()).find(|&j| f.code[j].is("{")).unwrap_or(f.code.len());
                for v in variants(&f.code, open) {
                    *declared.entry(v.text).or_default() += 1;
                }
            }
        }
    }
    let mut found = Vec::new();
    for (f, name, vs) in pub_enums(tree).into_iter().filter(|(_, n, _)| !n.ends_with("Error")) {
        for v in vs {
            let uses = named[v.text] - declared[v.text];
            let allowed = VARIANTS_ALLOWED.iter().any(|(e, n, _)| *e == name && *n == v.text);
            if uses == 0 && !allowed {
                found
                    .push(f.at(v.line, format!("{name}::{} is named by no non-test code", v.text)));
            }
        }
    }
    found
}

/// Variants exempt from [`error_variants`], as `(Enum, Variant, reason)`.
const ERROR_VARIANTS_ALLOWED: [(&str, &str, &str); 0] = [];

/// The `impl` header starting after `code[i]`: the implementing type's
/// name and whether the trait is `Display`.
fn impl_header<'a>(code: &[Tok<'a>], i: usize) -> (&'a str, bool) {
    let header: Vec<Tok<'a>> = code[i + 1..]
        .iter()
        .take_while(|t| !matches!(t.code(), Some("{" | "where")))
        .copied()
        .collect();
    // The last identifier at generic depth 0 names a path's item.
    let last_name = |toks: &[Tok<'a>]| {
        let mut depth = 0i32;
        let mut name = "";
        for t in toks {
            match t.code() {
                Some("<") => depth += 1,
                Some(">") => depth -= 1,
                _ if depth == 0 && t.kind == Kind::Ident => name = t.text,
                _ => {}
            }
        }
        name
    };
    let mut depth = 0i32;
    let split = header.iter().position(|t| {
        match t.code() {
            Some("<") => depth += 1,
            Some(">") => depth -= 1,
            _ => {}
        }
        depth == 0 && t.is("for")
    });
    match split {
        Some(s) => (last_name(&header[s + 1..]), last_name(&header[..s]) == "Display"),
        None => (last_name(&header), false),
    }
}

/// Every variant of a `pub enum …Error` under `crates/*/src` is named as
/// `Enum::Variant` (or `Self::Variant` inside an `impl` of the enum) by
/// non-test code other than the enum's own `impl Display`: an error
/// nothing raises is a case every caller must match and no test can
/// reach, as `ProofError::HashMismatch` sat beside `MissingNode`, which
/// the lookup by hash reports instead. Clear a finding by deleting the
/// variant, or by raising it.
fn error_variants(tree: &[File]) -> Vec<String> {
    let mut used: HashSet<(&str, &str)> = HashSet::new();
    for f in tree.iter().filter(|f| live_code(f)) {
        let code = &f.code;
        // Per open brace: the impl it opens, as (type, is Display).
        let mut frames: Vec<Option<(&str, bool)>> = Vec::new();
        let mut pending = None;
        for (i, t) in code.iter().enumerate() {
            match t.code() {
                Some("impl")
                    if i == 0
                        || matches!(code[i - 1].code(), Some("}" | ";" | "{" | "]" | "unsafe")) =>
                {
                    pending = Some(impl_header(code, i));
                }
                Some("{") => frames.push(pending.take()),
                Some("}") => {
                    frames.pop();
                }
                _ => {}
            }
            let Some(variant) = code.get(i + 2).filter(|v| {
                t.kind == Kind::Ident
                    && seq(code, i + 1, &["::"])
                    && v.kind == Kind::Ident
                    && v.text.starts_with(|c: char| c.is_ascii_uppercase())
            }) else {
                continue;
            };
            let current = frames.iter().rev().find_map(|f| *f);
            let ty = if t.is("Self") { current.map_or("Self", |c| c.0) } else { t.text };
            if current != Some((ty, true)) {
                used.insert((ty, variant.text));
            }
        }
    }
    let mut found = Vec::new();
    for (f, name, vs) in pub_enums(tree).into_iter().filter(|(_, n, _)| n.ends_with("Error")) {
        for v in vs {
            let allowed = ERROR_VARIANTS_ALLOWED.iter().any(|(e, n, _)| *e == name && *n == v.text);
            if !used.contains(&(name, v.text)) && !allowed {
                found.push(
                    f.at(v.line, format!("{name}::{} is raised and matched nowhere", v.text)),
                );
            }
        }
    }
    found
}

/// The directory that declares the telemetry registry's ids.
const TELEMETRY_DIR: &str = "crates/sim/src/telemetry";

/// The registry's id enums, and the `Telemetry` / `Sink` methods that
/// write an id of each.
const METRIC_ENUMS: [&str; 2] = ["CounterId", "HistId"];
const METRIC_WRITES: [&str; 2] = ["count", "observe"];

/// Ids exempt from [`metric_readers`], as `("Enum::Variant", reason)`.
const METRICS_ALLOWED: [(&str, &str); 0] = [];

/// Whether the path at `code[i]` sits inside the arguments of a
/// `count(…)` or `observe(…)` call, however deep.
fn in_metric_write(code: &[Tok], i: usize) -> bool {
    let mut depth = 0usize;
    for j in (0..i).rev() {
        match code[j].code() {
            Some(")" | "]" | "}") => depth += 1,
            Some("(") if depth == 0 && j > 0 && METRIC_WRITES.iter().any(|w| code[j - 1].is(w)) => {
                return true;
            }
            Some("(" | "[" | "{") => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    false
}

/// Every registry id — a variant of `CounterId` or `HistId` declared
/// under [`TELEMETRY_DIR`] — is named as `Enum::Variant` by a file
/// outside that directory that does not write it through `count` or
/// `observe`: a test, `repro` or `benchmark/`. An id only its writers
/// and the registry's own tests name costs a lock on the serving path
/// for a number nobody reads, and nothing notices when it counts the
/// wrong thing: a stash gauge once recorded the position-map size. Clear
/// a finding by deleting the id and its writes, or by reading it where a
/// result is checked.
fn metric_readers(tree: &[File]) -> Vec<String> {
    let mut writers: HashMap<(&str, &str), HashSet<usize>> = HashMap::new();
    let mut namers: HashMap<(&str, &str), HashSet<usize>> = HashMap::new();
    for (k, f) in tree.iter().enumerate().filter(|(_, f)| !f.under(&[TELEMETRY_DIR])) {
        for i in 0..f.toks.len() {
            let Some(e) = METRIC_ENUMS.iter().find(|e| seq(&f.toks, i, &[e, "::"])) else {
                continue;
            };
            let Some(v) = f.toks.get(i + 2).filter(|v| v.kind == Kind::Ident) else {
                continue;
            };
            let by = if in_metric_write(&f.toks, i) { &mut writers } else { &mut namers };
            by.entry((*e, v.text)).or_default().insert(k);
        }
    }
    let mut found = Vec::new();
    for f in tree.iter().filter(|f| f.under(&[TELEMETRY_DIR])) {
        for i in 0..f.code.len() {
            let Some(e) = METRIC_ENUMS.iter().find(|e| seq(&f.code, i, &["enum", e, "{"])) else {
                continue;
            };
            for v in variants(&f.code, i + 2) {
                let written = writers.get(&(*e, v.text));
                let read = namers.get(&(*e, v.text)).is_some_and(|files| {
                    files.iter().any(|k| written.is_none_or(|w| !w.contains(k)))
                });
                let path = format!("{e}::{}", v.text);
                let allowed = METRICS_ALLOWED.iter().any(|(p, _)| *p == path);
                if !read && !allowed {
                    found.push(f.at(v.line, format!("{path} is read nowhere but by its writers")));
                }
            }
        }
    }
    found
}

/// The one file that may name `audit_events` (`benchmark/src` is not
/// scanned): the auditor itself, whose unit tests fold recorded slices.
const AUDIT_FILE: &str = "crates/sim/src/telemetry/audit.rs";

/// `audit_events`, the audit of a recorded slice, is named only in
/// [`AUDIT_FILE`]: the live report, `Telemetry::audit()`, folds every
/// event under the digest chain's lock, while a slice is a copy of the
/// bounded ring that a long run outgrows.
fn audit_path(tree: &[File]) -> Vec<String> {
    let mut found = Vec::new();
    for f in tree
        .iter()
        .filter(|f| f.under(&["src", "crates", "tests", "examples"]) && f.path != AUDIT_FILE)
    {
        for t in f.toks.iter().filter(|t| t.is("audit_events")) {
            found.push(f.at(t.line, "read the live report with `Telemetry::audit()`"));
        }
    }
    found
}

/// A test file that writes to disk goes through `tape_sim::Scratch` (a
/// per-seed directory under `target/scratch/`, removed on success and
/// kept, its path printed, on failure), and no test names the system
/// temp directory: a test that writes elsewhere leaks droppings into the
/// repository or hides its state when a seed fails.
fn scratch(tree: &[File]) -> Vec<String> {
    let mut found = Vec::new();
    for f in tree.iter().filter(|f| f.under(&["tests"]) || f.in_crates("tests")) {
        let toks = &f.toks;
        let writes = (0..toks.len()).find(|&i| {
            ["write", "create_dir", "create_dir_all", "File"]
                .iter()
                .any(|w| seq(toks, i, &["std", "::", "fs", "::", w]))
                || seq(toks, i, &["File", "::", "create"])
                || toks[i].is("OpenOptions")
        });
        if let Some(i) = writes.filter(|_| !toks.iter().any(|t| t.is("Scratch"))) {
            found.push(f.at(toks[i].line, "writes to disk without `tape_sim::Scratch`"));
        }
        for (i, t) in toks.iter().enumerate() {
            if seq(toks, i, &["env", "::", "temp_dir"])
                || (t.kind == Kind::Str
                    && t.text.strip_prefix('/').is_some_and(|p| p.starts_with("tmp")))
            {
                found.push(f.at(t.line, "writes outside `target/scratch/`"));
            }
        }
    }
    found
}

/// Under `crates/*/src` and `src`, a `#[cfg(test)]` opens one of its
/// file's last top-level items: nothing but `#[cfg(test)]` items follows
/// it. Then the lines above a file's first `#[cfg(test)]` are exactly
/// its program lines, which is how `scripts/verify.sh` counts
/// `NONTEST_LINES`; a test helper mid-file, or one inside an `impl`,
/// hides the program lines below it from that count. Put it in the
/// file's test module.
fn test_tail(tree: &[File]) -> Vec<String> {
    let mut found = Vec::new();
    for f in tree.iter().filter(|f| f.in_crates("src") || f.under(&["src"])) {
        let spans = test_spans(&f.toks);
        let tail = spans
            .iter()
            .rev()
            .fold(f.toks.len(), |tail, &(start, end)| if end == tail { start } else { tail });
        for &(start, _) in spans.iter().filter(|&&(start, _)| start < tail) {
            found.push(f.at(f.toks[start].line, "a `#[cfg(test)]` item above program code"));
        }
    }
    found
}

// ---- The gates over the tree ------------------------------------------------

fn assert_clean(gate: Gate, remedy: &str) {
    let found = gate(tree());
    assert!(found.is_empty(), "{}\n{remedy}", found.join("\n"));
}

#[test]
fn no_host_clock_or_ambient_entropy() {
    assert_clean(determinism, "use the simulator Clock and a seeded SecureRng");
}

#[test]
fn host_threads_only_in_the_pure_lanes() {
    assert_clean(threads, "host threads belong in one of THREAD_FILES, with its reason");
}

#[test]
fn oram_paths_are_flat() {
    assert_clean(path_shape, "move the slots as one flat buffer and slices of it");
}

#[test]
fn every_config_field_has_a_second_value() {
    assert_clean(options, "make the field a constant, or show the second value");
}

#[test]
fn pool_workers_never_name_the_device() {
    assert!(tree().iter().any(|f| f.path == SEGMENT), "{SEGMENT} moved: update SEGMENT");
    assert_clean(seam, "hand the execute half what it needs through ExecCtx or the task");
}

#[test]
fn every_pub_item_is_wired() {
    assert_clean(
        unwired_items,
        "delete the item, make it a #[cfg(test)] helper, or give it a caller",
    );
}

#[test]
fn every_pub_enum_variant_is_wired() {
    assert_clean(unwired_variants, "delete the variant, or construct or match it");
}

#[test]
fn every_error_variant_is_raised() {
    assert_clean(error_variants, "delete the variant, or raise it");
}

#[test]
fn every_metric_has_a_reader() {
    assert_clean(
        metric_readers,
        "delete the id and its writes, or read it where a result is checked",
    );
}

#[test]
fn one_audit_path() {
    assert_clean(audit_path, "read the live report with Telemetry::audit()");
}

#[test]
fn tests_write_only_under_scratch() {
    assert_clean(scratch, "route the test's files through tape_sim::Scratch");
}

#[test]
fn test_code_only_at_the_end_of_a_file() {
    assert_clean(test_tail, "move the item into the file's test module");
}

// ---- Self-tests: planted violations -----------------------------------------

fn run(gate: Gate, sources: &[(&str, &str)]) -> Vec<String> {
    let files: Vec<File> = sources.iter().map(|(path, src)| File::new(path, src)).collect();
    gate(&files)
}

/// `line` inside a line comment, a nested block comment, a string and a
/// raw string.
fn hidden(line: &str) -> String {
    format!(
        "// {line}\n/* /* {line} */ */\nconst A: &str = \"{}\";\nconst B: &str = r#\"{line}\"#;\n",
        line.replace('\\', "\\\\").replace('"', "\\\"")
    )
}

/// `gate` reports exactly `want` (`path:line` prefixes) for `planted`.
fn assert_reports(gate: Gate, planted: &[(&str, &str)], want: &[&str]) {
    let found = run(gate, planted);
    assert_eq!(found.len(), want.len(), "{found:?}");
    for (f, w) in found.iter().zip(want) {
        assert!(f.starts_with(&format!("{w}: ")), "{f} is not at {w}");
    }
}

/// `gate` reports `line` planted at line 2 of `path`, and nothing when
/// the same text sits in comments and strings.
fn assert_line_gate(gate: Gate, path: &str, line: &str) {
    let planted = format!("fn f() {{\n{line}\n}}\n");
    assert_reports(gate, &[(path, &planted)], &[&format!("{path}:2")]);
    assert_reports(gate, &[(path, &hidden(line))], &[]);
}

#[test]
fn lexer_drops_comments_and_keeps_literals_whole() {
    let src = "a /* x /* y */ z */ b // c\n'q' 'lt \"s\\\"t\" r#\"u\"v\"# br\"w\" b'\\'' r#fn\nc";
    let toks: Vec<(Kind, &str, usize)> =
        lex(src).iter().map(|t| (t.kind, t.text, t.line)).collect();
    assert_eq!(
        toks,
        [
            (Kind::Ident, "a", 1),
            (Kind::Ident, "b", 1),
            (Kind::Lit, "'q'", 2),
            (Kind::Lifetime, "'lt", 2),
            (Kind::Str, "s\\\"t", 2),
            (Kind::Str, "u\"v", 2),
            (Kind::Str, "w", 2),
            (Kind::Lit, "b'\\''", 2),
            (Kind::Ident, "fn", 2),
            (Kind::Ident, "c", 3),
        ]
    );
}

#[test]
fn test_spans_end_at_their_closing_brace() {
    let src = "fn a() {}\n#[cfg(test)]\n#[inline]\nfn b() { { c } }\nfn d() {}\n\
               #[cfg(test)]\nuse e::{f, g};\n#[cfg(test)]\nmod tests {\n    fn h() {}\n}\nfn i() {}\n";
    let names: Vec<&str> = split_tests(&lex(src))
        .iter()
        .filter(|t| t.kind == Kind::Ident && t.text != "fn")
        .map(|t| t.text)
        .collect();
    assert_eq!(names, ["a", "d", "i"]);
}

#[test]
fn determinism_self_test() {
    assert_line_gate(determinism, "tests/planted.rs", "    let t = std::time::Instant::now();");
    assert_line_gate(determinism, "crates/x/src/lib.rs", "    let r = rand::random();");
}

#[test]
fn threads_self_test() {
    assert_line_gate(threads, "crates/x/src/lib.rs", "    std::thread::spawn(|| ());");
    assert_reports(threads, &[(THREAD_FILES[0].0, "fn f() { std::thread::scope(|_| ()); }")], &[]);
}

#[test]
fn path_shape_self_test() {
    assert_line_gate(path_shape, "crates/oram/src/x.rs", "    let p: Vec<Vec<u8>> = Vec::new();");
    let in_tests = "#[cfg(test)]\nmod tests {\n    fn f(p: Vec<Vec<u8>>) {}\n}\n";
    assert_reports(path_shape, &[("crates/oram/src/x.rs", in_tests)], &[]);
}

#[test]
fn options_self_test() {
    let def = "pub struct XConfig {\n    pub set: u8,\n    pub unset: u8,\n}\n\
               impl Default for XConfig { fn default() -> Self { XConfig { set: 1, unset: 2 } } }\n";
    let user = "fn f(mut c: XConfig) {\n    c.set = 3;\n    let unset: u8 = 4;\n    g(unset);\n}\n\
                struct Other { unset: u8 }\n";
    let files = [("crates/x/src/config.rs", def), ("src/user.rs", user)];
    assert_reports(options, &files, &["crates/x/src/config.rs:3"]);
    let mentioned =
        format!("{user}{}", hidden("XConfig { unset: 5, ..XConfig::default() }; c.unset = 5;"));
    assert_reports(
        options,
        &[files[0], ("src/user.rs", &mentioned)],
        &["crates/x/src/config.rs:3"],
    );
    let literal = "fn f() -> XConfig {\n    XConfig { unset: 5, ..XConfig::default() }\n}\n";
    let shorthand = "fn f(unset: u8) -> XConfig {\n    XConfig { set: 1, unset }\n}\n";
    for program in ["crates/y/src/lib.rs", "crates/bench/src/bin/x.rs", "benchmark/src/lit.rs"] {
        assert_reports(options, &[files[0], files[1], (program, literal)], &[]);
        assert_reports(options, &[files[0], files[1], (program, shorthand)], &[]);
    }
    // A literal counts for the struct it names; `Self` for the impl's type.
    let other = "fn f() -> Other {\n    Other { unset: 5 }\n}\n\
                 impl Other {\n    fn g() -> Self { Self { unset: 5 } }\n}\n";
    assert_reports(
        options,
        &[files[0], files[1], ("src/other.rs", other)],
        &["crates/x/src/config.rs:3"],
    );
    let own = "impl XConfig {\n    fn g(x: u8) -> Self { Self { set: x, unset: 5 } }\n}\n";
    assert_reports(options, &[files[0], files[1], ("src/own.rs", own)], &[]);
    let blocks = "impl XConfig {\n    fn f(unset: u8) -> Self { unset }\n}\n\
                  fn g(unset: u8) -> u8 {\n    if unset > X::MAX { unset } else { 0 }\n}\n";
    assert_reports(
        options,
        &[files[0], files[1], ("src/blocks.rs", blocks)],
        &["crates/x/src/config.rs:3"],
    );
    let in_unit_tests = format!("#[cfg(test)]\nmod tests {{\n{literal}}}\n");
    for test_code in [
        ("tests/lit.rs", literal),
        ("crates/y/tests/lit.rs", literal),
        ("examples/lit.rs", literal),
        ("crates/y/src/lib.rs", &in_unit_tests),
    ] {
        assert_reports(options, &[files[0], files[1], test_code], &["crates/x/src/config.rs:3"]);
    }
}

#[test]
fn seam_self_test() {
    let planted = format!("fn a(d: &HarDTape) {{}}\n{EXECUTE_HALF} ---\nfn b(d: &HarDTape) {{}}\n");
    assert_reports(seam, &[(SEGMENT, &planted)], &[&format!("{SEGMENT}:3")]);
    let hidden = format!("{EXECUTE_HALF} ---\n{}", hidden("fn b(d: &HarDTape) {}"));
    assert_reports(seam, &[(SEGMENT, &hidden)], &[]);
    assert_reports(seam, &[(SEGMENT, "fn a() {}\n")], &[&format!("{SEGMENT}:1")]);
    assert_line_gate(seam, "crates/core/src/x.rs", "#[allow(clippy::too_many_arguments)]");
}

#[test]
fn unwired_items_self_test() {
    let def = "pub fn live() {}\npub(crate) const fn dead() {}\npub const DEAD: u8 = 1;\n\
               pub struct Used;\nimpl Used {}\npub type Alias = u8;\n\
               #[cfg(test)]\nmod tests {\n    fn t() { super::dead(); let _ = super::DEAD + super::Alias::MAX; }\n}\n";
    let user = format!("fn main() {{ x::live(); }}\n{}", hidden("x::dead(); x::DEAD; x::Alias"));
    let files = [("crates/x/src/lib.rs", def), ("examples/user.rs", user.as_str())];
    assert_reports(
        unwired_items,
        &files,
        &["crates/x/src/lib.rs:2", "crates/x/src/lib.rs:3", "crates/x/src/lib.rs:6"],
    );
}

#[test]
fn unwired_variants_self_test() {
    let def = "pub enum Mode {\n    Live,\n    #[default]\n    Dead { at: u8 },\n}\n\
               pub enum Other { Dead }\nfn f(m: Mode) -> bool { matches!(m, Mode::Live) }\n\
               #[cfg(test)]\nfn t() -> Mode { Mode::Dead { at: 0 } }\n";
    let user = format!("fn g() {{}}\n{}", hidden("Mode::Dead { at: 1 }"));
    let files = [("crates/x/src/lib.rs", def), ("src/user.rs", user.as_str())];
    assert_reports(unwired_variants, &files, &["crates/x/src/lib.rs:4", "crates/x/src/lib.rs:6"]);
}

#[test]
fn error_variants_self_test() {
    let def = "pub enum XError {\n    Raised,\n    Shown,\n    Matched(u8),\n}\n\
               impl std::fmt::Display for XError {\n    fn fmt(&self) {\n        match self {\n\
               XError::Raised => (), Self::Shown => (), Self::Matched(_) => () }\n    }\n}\n\
               impl XError {\n    fn code(&self) -> u8 { match self { Self::Matched(c) => *c, _ => 0 } }\n}\n";
    let user = format!("fn f() -> XError {{ XError::Raised }}\n{}", hidden("XError::Shown"));
    let files = [("crates/x/src/error.rs", def), ("src/user.rs", user.as_str())];
    assert_reports(error_variants, &files, &["crates/x/src/error.rs:3"]);
}

#[test]
fn metric_readers_self_test() {
    let def = format!("{TELEMETRY_DIR}/mod.rs");
    // A read under the telemetry directory is no reader.
    let ids = "id_table! {\n    pub enum CounterId {\n        Written,\n        Read,\n    }\n}\n\
               fn t(t: &Telemetry) -> u64 { t.counter(CounterId::Written) }\n";
    // Nor is the writer's own test; an `if` inside the call still writes.
    let writer = "fn f(t: &Telemetry, up: bool) {\n\
                  t.count(if up { CounterId::Written } else { CounterId::Read }, 1);\n}\n\
                  #[cfg(test)]\nmod tests {\n\
                  fn t(t: &Telemetry) { t.counter(CounterId::Written); }\n}\n";
    let reader = "fn g(t: &Telemetry) -> u64 {\n    t.counter(CounterId::Read)\n}\n";
    let planted = [(def.as_str(), ids), ("crates/x/src/w.rs", writer), ("tests/other.rs", reader)];
    assert_reports(metric_readers, &planted, &[&format!("{def}:3")]);
    let hidden_read = hidden("t.counter(CounterId::Written)");
    assert_reports(
        metric_readers,
        &[planted[0], planted[1], planted[2], ("tests/planted.rs", &hidden_read)],
        &[&format!("{def}:3")],
    );
    let read = "fn h(t: &Telemetry) -> u64 {\n    t.counter(CounterId::Written)\n}\n";
    assert_reports(
        metric_readers,
        &[planted[0], planted[1], planted[2], ("tests/planted.rs", read)],
        &[],
    );
}

#[test]
fn audit_path_self_test() {
    assert_line_gate(audit_path, "tests/planted.rs", "    let r = audit::audit_events(&events);");
    assert_reports(audit_path, &[(AUDIT_FILE, "pub fn audit_events() {}")], &[]);
}

#[test]
fn scratch_self_test() {
    assert_line_gate(
        scratch,
        "tests/planted.rs",
        "    std::fs::write(\"out\", b\"x\").expect(\"written\");",
    );
    assert_line_gate(scratch, "crates/x/tests/planted.rs", "    let d = std::env::temp_dir();");
    assert_line_gate(scratch, "tests/planted.rs", "    let d = Path::new(\"/tmp/out\");");
    let scoped =
        "use tape_sim::Scratch;\nfn f() { std::fs::write(\"out\", b\"x\").expect(\"written\"); }\n";
    assert_reports(scratch, &[("tests/planted.rs", scoped)], &[]);
}

#[test]
fn test_tail_self_test() {
    let path = "crates/x/src/lib.rs";
    let planted = "fn a() {}\n#[cfg(test)]\nfn helper() {}\nimpl A {\n    #[cfg(test)]\n    fn b() {}\n}\n\
                   #[cfg(test)]\nmod tests {}\n";
    assert_reports(test_tail, &[(path, planted)], &[&format!("{path}:2"), &format!("{path}:5")]);
    let tail = "fn a() {}\n#[cfg(test)]\nmod tests {\n    #[cfg(test)]\n    fn h() {}\n}\n\
                #[cfg(test)]\nmod probe {}\n";
    assert_reports(test_tail, &[(path, tail)], &[]);
    assert_reports(test_tail, &[("tests/planted.rs", planted)], &[]);
    let hidden = format!("{}fn b() {{}}\n", hidden("#[cfg(test)]"));
    assert_reports(test_tail, &[(path, &hidden)], &[]);
}
