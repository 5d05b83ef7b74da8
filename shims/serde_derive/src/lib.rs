//! Offline stand-in for `serde_derive`.
//!
//! The real derive macros are built on `syn`/`quote`, neither of which is
//! available offline, so this parses the item's token stream by hand. It
//! derives `Serialize` for the one shape this workspace renders: a
//! non-generic struct with named fields. The generated impl builds a
//! `serde::Value::Map` with one entry per field, in declaration order. Any
//! other shape (an enum, a tuple or unit struct, a generic type) gets a
//! `compile_error!` that names it.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::fmt::Write;

/// Skip `#[...]` attributes (including doc comments) starting at `i`.
fn skip_attrs(tokens: &[TokenTree], mut i: usize) -> usize {
    while i + 1 < tokens.len() {
        match (&tokens[i], &tokens[i + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(g))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                i += 2;
            }
            _ => break,
        }
    }
    i
}

/// Skip a `pub` / `pub(...)` visibility qualifier starting at `i`.
fn skip_visibility(tokens: &[TokenTree], mut i: usize) -> usize {
    if matches!(&tokens[i..], [TokenTree::Ident(id), ..] if id.to_string() == "pub") {
        i += 1;
        if matches!(&tokens[i..], [TokenTree::Group(g), ..] if g.delimiter() == Delimiter::Parenthesis)
        {
            i += 1;
        }
    }
    i
}

/// Starting at `i`, skip tokens until a comma at angle-bracket depth 0;
/// returns the index just past that comma (or `tokens.len()`).
fn skip_past_toplevel_comma(tokens: &[TokenTree], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < tokens.len() {
        if let TokenTree::Punct(p) = &tokens[i] {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => return i + 1,
                _ => {}
            }
        }
        i += 1;
    }
    i
}

/// Field names of a `{ ... }` struct body.
fn parse_named_fields(group: &proc_macro::Group) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut names = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_visibility(&tokens, skip_attrs(&tokens, i));
        if i >= tokens.len() {
            break;
        }
        let TokenTree::Ident(name) = &tokens[i] else {
            return Err(format!("expected field name, found `{}`", tokens[i]));
        };
        names.push(name.to_string());
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected `:` after field name, found {other:?}")),
        }
        i = skip_past_toplevel_comma(&tokens, i);
    }
    Ok(names)
}

/// The struct's name and field names, or why the item is not a
/// non-generic struct with named fields.
fn parse_struct(input: TokenStream) -> Result<(String, Vec<String>), String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_visibility(&tokens, skip_attrs(&tokens, 0));
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct`, found {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(name)) => name.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    i += 1;
    let unsupported = |shape: &str| {
        Err(format!(
            "the offline serde_derive shim derives `Serialize` only for non-generic structs \
             with named fields; `{name}` is {shape}"
        ))
    };
    match kind.as_str() {
        "struct" => {}
        "enum" => return unsupported("an enum"),
        _ => return unsupported("not a struct"),
    }
    match tokens.get(i) {
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => unsupported("generic"),
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Ok((name, parse_named_fields(g)?))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            unsupported("a tuple struct")
        }
        _ => unsupported("a unit struct"),
    }
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let code = match parse_struct(input) {
        Ok((name, fields)) => {
            let mut entries = String::new();
            for f in &fields {
                let _ = write!(
                    entries,
                    "(::std::string::String::from({f:?}), ::serde::Serialize::to_value(&self.{f})),"
                );
            }
            format!(
                "#[automatically_derived]\n\
                 impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Map(::std::vec![{entries}])\n\
                     }}\n\
                 }}"
            )
        }
        Err(e) => format!("compile_error!({e:?});"),
    };
    code.parse().expect("generated code parses")
}
