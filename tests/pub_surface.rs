//! The library crates' `pub` surface as a golden: every `pub` item declared
//! outside `#[cfg(test)]` in the six library crates, one sorted line each
//! (`crate::module::Item`, or `crate::module::Type::method` for an inherent
//! method or associated const), against `tests/golden/pub_items.txt`.
//!
//! A new `pub` item is a line of diff in review, and so is a deleted one;
//! an item whose only callers are its own tests shows up as a line nobody
//! needs. On a mismatch the test prints what moved and the fresh list to
//! commit.
//!
//! The scan is textual and std-only: it tokenizes each source file
//! (comments and literals dropped), follows `mod` declarations from
//! `lib.rs`, skips anything under a `#[cfg(...)]` that names `test`, and
//! does not descend into function bodies or trait definitions. Items under
//! any other `cfg` (the reactor's per-platform modules) are listed whatever
//! the build target, so the golden reads the same on every host.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The six library crates, as `(directory under crates/, crate name)`.
const CRATES: [(&str, &str); 6] = [
    ("common", "bfly_common"),
    ("datagen", "bfly_datagen"),
    ("mining", "bfly_mining"),
    ("inference", "bfly_inference"),
    ("core", "bfly_core"),
    ("serve", "bfly_serve"),
];

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Punct(&'static str),
    Lit,
}

/// Tokenize Rust source: identifiers, punctuation (`::`, `->` and `=>` as
/// one token each) and literals; comments are dropped.
fn tokenize(src: &str) -> Vec<Tok> {
    const PUNCT: [&str; 3] = ["::", "->", "=>"];
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c.is_whitespace() {
            i += 1;
        } else if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 0;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if c == '"' {
            i = skip_string(&chars, i + 1);
            toks.push(Tok::Lit);
        } else if c == '\'' {
            // A char literal (`'x'`, `'\n'`) or a lifetime (`'a`).
            if next == Some('\\') {
                i += 2;
                while i < chars.len() && chars[i] != '\'' {
                    i += 1;
                }
                i += 1;
                toks.push(Tok::Lit);
            } else if chars.get(i + 2) == Some(&'\'') {
                i += 3;
                toks.push(Tok::Lit);
            } else {
                i += 1;
            }
        } else if c.is_alphanumeric() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            match (word.as_str(), chars.get(i)) {
                ("r" | "br", Some('"' | '#')) => {
                    let hashes = chars[i..].iter().take_while(|&&h| h == '#').count();
                    i += hashes + 1;
                    while i < chars.len()
                        && !(chars[i] == '"'
                            && chars[i + 1..].iter().take_while(|&&h| h == '#').count() >= hashes)
                    {
                        i += 1;
                    }
                    i += 1 + hashes;
                    toks.push(Tok::Lit);
                }
                ("b", Some('"')) => {
                    i = skip_string(&chars, i + 1);
                    toks.push(Tok::Lit);
                }
                _ if word.starts_with(|c: char| c.is_ascii_digit()) => toks.push(Tok::Lit),
                _ => toks.push(Tok::Ident(word)),
            }
        } else {
            let pair: String = chars[i..chars.len().min(i + 2)].iter().collect();
            if let Some(p) = PUNCT.iter().find(|&&p| p == pair) {
                toks.push(Tok::Punct(p));
                i += 2;
            } else {
                let one = match c {
                    '{' => "{",
                    '}' => "}",
                    '(' => "(",
                    ')' => ")",
                    '[' => "[",
                    ']' => "]",
                    '<' => "<",
                    '>' => ">",
                    ';' => ";",
                    '#' => "#",
                    '!' => "!",
                    _ => "",
                };
                toks.push(Tok::Punct(one));
                i += 1;
            }
        }
    }
    toks
}

/// Index just past the closing quote of a string whose body starts at `i`.
fn skip_string(chars: &[char], mut i: usize) -> usize {
    while i < chars.len() && chars[i] != '"' {
        i += if chars[i] == '\\' { 2 } else { 1 };
    }
    i + 1
}

/// Walks one crate's module tree and collects its `pub` item paths.
struct Surface {
    items: BTreeSet<String>,
}

impl Surface {
    /// Scan the module in `file` (path `module`), whose child modules'
    /// files live under `dir`.
    fn file(&mut self, file: &Path, dir: &Path, module: &str) {
        let src = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let toks = tokenize(&src);
        let mut i = 0;
        self.items(&toks, &mut i, dir, module, None);
    }

    /// Scan items from `toks[*i]` up to the closing `}` of the enclosing
    /// block (or the end of the file). `owner` is the type of an inherent
    /// `impl` block, whose `pub` methods and consts are `Type::name`.
    fn items(
        &mut self,
        toks: &[Tok],
        i: &mut usize,
        dir: &Path,
        module: &str,
        owner: Option<&str>,
    ) {
        while *i < toks.len() {
            let mut test_only = false;
            loop {
                match (toks.get(*i), toks.get(*i + 1)) {
                    (Some(Tok::Punct("#")), Some(Tok::Punct("!"))) => {
                        *i += 2;
                        skip_group(toks, i);
                    }
                    (Some(Tok::Punct("#")), _) => {
                        *i += 1;
                        let start = *i;
                        skip_group(toks, i);
                        let attr = &toks[start..*i];
                        test_only |=
                            attr.get(1) == Some(&ident("cfg")) && attr.contains(&ident("test"));
                    }
                    (Some(Tok::Punct(";")), _) => *i += 1,
                    _ => break,
                }
            }
            match toks.get(*i) {
                None => return,
                Some(Tok::Punct("}")) => {
                    *i += 1;
                    return;
                }
                _ => {}
            }
            let mut public = false;
            if toks[*i] == ident("pub") {
                *i += 1;
                if toks.get(*i) == Some(&Tok::Punct("(")) {
                    skip_group(toks, i); // pub(crate) / pub(super): not public
                } else {
                    public = true;
                }
            }
            while let Some(Tok::Ident(q)) = toks.get(*i) {
                let before_fn =
                    matches!(toks.get(*i + 1), Some(Tok::Ident(n)) if n == "fn" || n == "unsafe");
                match q.as_str() {
                    "unsafe" | "async" => *i += 1,
                    "const" if before_fn => *i += 1,
                    _ => break,
                }
            }
            let keyword = match toks.get(*i) {
                Some(Tok::Ident(k)) => k.clone(),
                _ => String::new(),
            };
            *i += 1;
            match keyword.as_str() {
                "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" | "union"
                | "mod" => {
                    let Some(Tok::Ident(name)) = toks.get(*i).cloned() else {
                        panic!("{module}: {keyword} without a name at token {i}")
                    };
                    *i += 1;
                    let path = match owner {
                        Some(ty) => format!("{module}::{ty}::{name}"),
                        None => format!("{module}::{name}"),
                    };
                    if test_only {
                        skip_item(toks, i);
                        continue;
                    }
                    if public {
                        self.items.insert(path.clone());
                    }
                    if keyword != "mod" {
                        skip_item(toks, i);
                    } else if toks.get(*i) == Some(&Tok::Punct(";")) {
                        *i += 1;
                        let child_dir = dir.join(&name);
                        let flat = dir.join(format!("{name}.rs"));
                        let file = if flat.exists() {
                            flat
                        } else {
                            child_dir.join("mod.rs")
                        };
                        self.file(&file, &child_dir, &path);
                    } else {
                        *i += 1; // `{`
                        self.items(toks, i, &dir.join(&name), &path, None);
                    }
                }
                "impl" => {
                    let header_start = *i;
                    if toks.get(*i) == Some(&Tok::Punct("<")) {
                        skip_group(toks, i);
                    }
                    let generics_end = *i;
                    while toks.get(*i) != Some(&Tok::Punct("{")) {
                        *i += 1;
                    }
                    let header = &toks[generics_end..*i];
                    let head = header
                        .iter()
                        .position(|t| *t == ident("where"))
                        .map_or(header, |w| &header[..w]);
                    if test_only || head.contains(&ident("for")) {
                        skip_group(toks, i); // trait impls declare nothing `pub`
                    } else {
                        let ty = type_name(head)
                            .unwrap_or_else(|| panic!("{module}: impl at token {header_start}"));
                        *i += 1; // `{`
                        self.items(toks, i, dir, module, Some(&ty));
                    }
                }
                _ => skip_item(toks, i), // `use`, `macro_rules!`, item macros
            }
        }
    }
}

fn ident(s: &str) -> Tok {
    Tok::Ident(s.to_string())
}

/// The implemented type's name in an inherent `impl` header (generics
/// already skipped): the last identifier before its own generic arguments.
fn type_name(head: &[Tok]) -> Option<String> {
    let end = head
        .iter()
        .position(|t| *t == Tok::Punct("<"))
        .unwrap_or(head.len());
    head[..end].iter().rev().find_map(|t| match t {
        Tok::Ident(s) if s != "dyn" => Some(s.clone()),
        _ => None,
    })
}

/// Skip one balanced group starting at `toks[*i]`: a `<…>` group counts
/// angle brackets only, a `(…)`, `[…]` or `{…}` group all three others.
fn skip_group(toks: &[Tok], i: &mut usize) {
    let (open, close): (&[&str], &[&str]) = if toks.get(*i) == Some(&Tok::Punct("<")) {
        (&["<"], &[">"])
    } else {
        (&["(", "[", "{"], &[")", "]", "}"])
    };
    let mut depth = 0usize;
    while let Some(t) = toks.get(*i) {
        *i += 1;
        let Tok::Punct(p) = t else { continue };
        if open.contains(p) {
            depth += 1;
        } else if close.contains(p) {
            depth -= 1;
            if depth == 0 {
                return;
            }
        }
    }
}

/// Skip the rest of an item: up to a `;` outside any bracket, or through
/// its `{…}` body.
fn skip_item(toks: &[Tok], i: &mut usize) {
    while let Some(t) = toks.get(*i) {
        match t {
            Tok::Punct(";") => {
                *i += 1;
                return;
            }
            Tok::Punct("{") => {
                skip_group(toks, i);
                return;
            }
            Tok::Punct("(" | "[") => skip_group(toks, i),
            _ => *i += 1,
        }
    }
}

fn pub_items() -> Vec<String> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut surface = Surface {
        items: BTreeSet::new(),
    };
    for (dir, name) in CRATES {
        let src = root.join(dir).join("src");
        surface.file(&src.join("lib.rs"), &src, name);
    }
    surface.items.into_iter().collect()
}

#[test]
fn pub_items_match_the_golden() {
    let fresh = pub_items();
    let golden = include_str!("golden/pub_items.txt");
    let committed: Vec<&str> = golden.lines().collect();
    if committed == fresh {
        return;
    }
    let added: Vec<&String> = fresh
        .iter()
        .filter(|l| !committed.contains(&l.as_str()))
        .collect();
    let removed: Vec<&&str> = committed
        .iter()
        .filter(|l| !fresh.iter().any(|f| f == **l))
        .collect();
    panic!(
        "the pub surface moved; added {added:#?}, removed {removed:#?}\n\
         fresh tests/golden/pub_items.txt:\n{}\n",
        fresh.join("\n")
    );
}

/// The scanner itself, on a source that exercises every rule it has.
#[test]
fn scanner_follows_the_item_rules() {
    let toks = tokenize(
        r##"
        //! pub fn in_a_doc() {}
        pub struct Kept<T> { pub field: T }
        pub(crate) fn crate_only() {}
        pub const fn const_fn() -> char { '}' }
        pub const LIMIT: [u8; 2] = [1, 2];
        impl<T: Clone> Kept<T> where T: Default {
            pub fn method(&self) -> &str { "}{" }
            #[cfg(test)]
            pub fn test_hook(&self) {}
            fn private(&self) {}
            pub const ASSOC: usize = 1;
        }
        impl<T> std::fmt::Debug for Kept<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
        }
        #[cfg(all(test, unix))]
        mod tests { pub fn hidden() {} }
        mod inner {
            pub enum Shape { Round }
            impl Shape { pub fn sides(&self) -> u8 { let s = r#"}"#; 0 } }
        }
        pub use inner::Shape;
        "##,
    );
    let mut surface = Surface {
        items: BTreeSet::new(),
    };
    surface.items(&toks, &mut 0, Path::new("."), "k", None);
    let found: Vec<String> = surface.items.into_iter().collect();
    assert_eq!(
        found,
        [
            "k::Kept",
            "k::Kept::ASSOC",
            "k::Kept::method",
            "k::LIMIT",
            "k::const_fn",
            "k::inner::Shape",
            "k::inner::Shape::sides",
        ]
    );
}
