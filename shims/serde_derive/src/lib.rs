//! Offline `#[derive(Serialize, Deserialize)]` for the serde shim.
//!
//! Works without `syn`/`quote` by walking the `proc_macro` token trees
//! directly. Supports exactly what this workspace derives on: non-generic
//! structs (unit / tuple / named) and enums (unit / tuple / struct
//! variants), with `#[serde(default)]` on named struct fields as the only
//! recognized serde attribute. The representation matches
//! serde's defaults: named structs become objects, newtype structs unwrap
//! to their inner value, unit enum variants become strings, and data
//! variants become externally tagged single-key objects.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Field layout of a struct or enum variant. Named fields carry whether
/// they are marked `#[serde(default)]`.
enum Fields {
    Unit,
    Tuple(usize),
    Named(Vec<(String, bool)>),
}

/// Parsed derive input.
enum Shape {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

/// Skip one `#[...]` attribute if present; returns its bracketed body.
fn skip_attr(
    iter: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>,
) -> Option<TokenStream> {
    if matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        iter.next();
        match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => Some(g.stream()),
            other => panic!("serde shim derive: malformed attribute near {other:?}"),
        }
    } else {
        None
    }
}

/// Is this attribute body `serde(...)`? Returns the inner arguments, and
/// panics on any serde argument other than `default` — the shim must not
/// silently ignore semantics it does not implement.
fn serde_default_attr(body: TokenStream) -> bool {
    let mut iter = body.into_iter();
    match iter.next() {
        Some(TokenTree::Ident(i)) if i.to_string() == "serde" => {}
        _ => return false,
    }
    match iter.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let args: Vec<String> = g.stream().into_iter().map(|t| t.to_string()).collect();
            if args == ["default"] {
                true
            } else {
                panic!(
                    "serde shim derive: unsupported serde attribute `serde({})`",
                    args.join("")
                );
            }
        }
        other => panic!("serde shim derive: malformed serde attribute near {other:?}"),
    }
}

/// Skip `pub`, `pub(...)`, or nothing.
fn skip_visibility(iter: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    if matches!(iter.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        iter.next();
        if matches!(iter.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            iter.next();
        }
    }
}

/// Parse the fields of a `{ ... }` body into `(name, has_serde_default)`.
fn parse_named_fields(group: TokenStream) -> Vec<(String, bool)> {
    let mut names = Vec::new();
    let mut iter = group.into_iter().peekable();
    loop {
        let mut default = false;
        while let Some(body) = skip_attr(&mut iter) {
            default |= serde_default_attr(body);
        }
        skip_visibility(&mut iter);
        match iter.next() {
            Some(TokenTree::Ident(name)) => names.push((name.to_string(), default)),
            None => break,
            other => panic!("serde shim derive: expected field name, found {other:?}"),
        }
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim derive: expected `:`, found {other:?}"),
        }
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        loop {
            match iter.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => depth += 1,
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => depth -= 1,
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && depth == 0 => {
                    iter.next();
                    break;
                }
                None => break,
                _ => {}
            }
            iter.next();
        }
    }
    names
}

/// Count the fields of a `( ... )` tuple body.
fn count_tuple_fields(group: TokenStream) -> usize {
    let mut count = 0usize;
    let mut depth = 0i32;
    let mut in_field = false;
    let mut iter = group.into_iter().peekable();
    loop {
        while skip_attr(&mut iter).is_some() {}
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => depth += 1,
            Some(TokenTree::Punct(p)) if p.as_char() == '>' => depth -= 1,
            Some(TokenTree::Punct(p)) if p.as_char() == ',' && depth == 0 => in_field = false,
            Some(_) => {
                if !in_field {
                    count += 1;
                    in_field = true;
                }
            }
            None => break,
        }
    }
    count
}

/// Parse one enum body into `(variant, fields)` pairs.
fn parse_variants(group: TokenStream) -> Vec<(String, Fields)> {
    let mut variants = Vec::new();
    let mut iter = group.into_iter().peekable();
    loop {
        while skip_attr(&mut iter).is_some() {}
        let name = match iter.next() {
            Some(TokenTree::Ident(name)) => name.to_string(),
            None => break,
            other => panic!("serde shim derive: expected variant name, found {other:?}"),
        };
        let fields = match iter.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let body = g.stream();
                iter.next();
                Fields::Named(parse_named_fields(body))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let body = g.stream();
                iter.next();
                Fields::Tuple(count_tuple_fields(body))
            }
            _ => Fields::Unit,
        };
        // Skip an optional `= discriminant` and the trailing comma.
        for tok in iter.by_ref() {
            if matches!(&tok, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push((name, fields));
    }
    variants
}

fn parse_shape(input: TokenStream) -> Shape {
    let mut iter = input.into_iter().peekable();
    while skip_attr(&mut iter).is_some() {}
    skip_visibility(&mut iter);
    let keyword = match iter.next() {
        Some(TokenTree::Ident(kw)) => kw.to_string(),
        other => panic!("serde shim derive: expected `struct`/`enum`, found {other:?}"),
    };
    let name = match iter.next() {
        Some(TokenTree::Ident(name)) => name.to_string(),
        other => panic!("serde shim derive: expected type name, found {other:?}"),
    };
    if matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic type `{name}` is not supported");
    }
    match keyword.as_str() {
        "struct" => {
            let fields = match iter.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                _ => Fields::Unit,
            };
            Shape::Struct { name, fields }
        }
        "enum" => match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Shape::Enum {
                name,
                variants: parse_variants(g.stream()),
            },
            other => panic!("serde shim derive: expected enum body, found {other:?}"),
        },
        other => panic!("serde shim derive: unsupported item kind `{other}`"),
    }
}

fn serialize_fields_expr(owner: &str, fields: &Fields, access_prefix: &str) -> String {
    match fields {
        Fields::Unit => "::serde::Value::Null".to_string(),
        Fields::Tuple(1) => format!("::serde::Serialize::serialize(&{access_prefix}0)"),
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::serialize(&{access_prefix}{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
        Fields::Named(names) => {
            let items: Vec<String> = names
                .iter()
                .map(|(f, _)| {
                    format!(
                        "(String::from(\"{f}\"), ::serde::Serialize::serialize(&{access_prefix}{f}))"
                    )
                })
                .collect();
            let _ = owner;
            format!("::serde::Value::Object(vec![{}])", items.join(", "))
        }
    }
}

/// `#[derive(Serialize)]` for the serde shim.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let body = match parse_shape(input) {
        Shape::Struct { name, fields } => {
            let expr = serialize_fields_expr(&name, &fields, "self.");
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn serialize(&self) -> ::serde::Value {{ {expr} }}\n\
                 }}"
            )
        }
        Shape::Enum { name, variants } => {
            let mut arms = String::new();
            for (vname, fields) in &variants {
                match fields {
                    Fields::Unit => arms.push_str(&format!(
                        "{name}::{vname} => ::serde::Value::Str(String::from(\"{vname}\")),\n"
                    )),
                    Fields::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        let payload = if *n == 1 {
                            "::serde::Serialize::serialize(f0)".to_string()
                        } else {
                            let items: Vec<String> = binders
                                .iter()
                                .map(|b| format!("::serde::Serialize::serialize({b})"))
                                .collect();
                            format!("::serde::Value::Array(vec![{}])", items.join(", "))
                        };
                        arms.push_str(&format!(
                            "{name}::{vname}({}) => ::serde::Value::Object(vec![(String::from(\"{vname}\"), {payload})]),\n",
                            binders.join(", ")
                        ));
                    }
                    Fields::Named(fnames) => {
                        let items: Vec<String> = fnames
                            .iter()
                            .map(|(f, _)| {
                                format!(
                                    "(String::from(\"{f}\"), ::serde::Serialize::serialize({f}))"
                                )
                            })
                            .collect();
                        let binders: Vec<&str> = fnames.iter().map(|(f, _)| f.as_str()).collect();
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {} }} => ::serde::Value::Object(vec![(String::from(\"{vname}\"), ::serde::Value::Object(vec![{}]))]),\n",
                            binders.join(", "),
                            items.join(", ")
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn serialize(&self) -> ::serde::Value {{\n\
                         match self {{\n{arms}}}\n\
                     }}\n\
                 }}"
            )
        }
    };
    body.parse()
        .expect("serde shim derive: generated invalid Rust")
}

fn deserialize_named_body(owner: &str, constructor: &str, names: &[(String, bool)]) -> String {
    let fields: Vec<String> = names
        .iter()
        .map(|(f, default)| {
            let lookup = if *default { "field_default" } else { "field" };
            format!("{f}: ::serde::{lookup}(obj, \"{f}\", \"{owner}\")?")
        })
        .collect();
    format!("Ok({constructor} {{ {} }})", fields.join(", "))
}

fn deserialize_tuple_body(owner: &str, constructor: &str, n: usize, source: &str) -> String {
    if n == 1 {
        return format!("Ok({constructor}(::serde::Deserialize::deserialize({source})?))");
    }
    let items: Vec<String> = (0..n)
        .map(|i| format!("::serde::Deserialize::deserialize(&arr[{i}])?"))
        .collect();
    format!(
        "{{\n\
             let arr = {source}.as_array()\
                 .ok_or_else(|| ::serde::Error::expected(\"array\", \"{owner}\", {source}))?;\n\
             if arr.len() != {n} {{\n\
                 return Err(::serde::Error::message(format!(\
                     \"expected {n} elements for {owner}, found {{}}\", arr.len())));\n\
             }}\n\
             Ok({constructor}({items}))\n\
         }}",
        items = items.join(", ")
    )
}

/// `#[derive(Deserialize)]` for the serde shim.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let body = match parse_shape(input) {
        Shape::Struct { name, fields } => {
            let inner = match &fields {
                Fields::Unit => format!(
                    "match value {{\n\
                         ::serde::Value::Null => Ok({name}),\n\
                         other => Err(::serde::Error::expected(\"null\", \"{name}\", other)),\n\
                     }}"
                ),
                Fields::Tuple(n) => deserialize_tuple_body(&name, &name, *n, "value"),
                Fields::Named(names) => format!(
                    "{{\n\
                         let obj = value.as_object()\
                             .ok_or_else(|| ::serde::Error::expected(\"object\", \"{name}\", value))?;\n\
                         {}\n\
                     }}",
                    deserialize_named_body(&name, &name, names)
                ),
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn deserialize(value: &::serde::Value) -> Result<Self, ::serde::Error> {{\n\
                         {inner}\n\
                     }}\n\
                 }}"
            )
        }
        Shape::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for (vname, fields) in &variants {
                match fields {
                    Fields::Unit => {
                        unit_arms.push_str(&format!("\"{vname}\" => Ok({name}::{vname}),\n"));
                        tagged_arms.push_str(&format!("\"{vname}\" => Ok({name}::{vname}),\n"));
                    }
                    Fields::Tuple(n) => {
                        let owner = format!("{name}::{vname}");
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => {},\n",
                            deserialize_tuple_body(&owner, &owner, *n, "payload")
                        ));
                    }
                    Fields::Named(fnames) => {
                        let owner = format!("{name}::{vname}");
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => {{\n\
                                 let obj = payload.as_object()\
                                     .ok_or_else(|| ::serde::Error::expected(\"object\", \"{owner}\", payload))?;\n\
                                 {}\n\
                             }},\n",
                            deserialize_named_body(&owner, &owner, fnames)
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn deserialize(value: &::serde::Value) -> Result<Self, ::serde::Error> {{\n\
                         if let Some(tag) = value.as_str() {{\n\
                             return match tag {{\n\
                                 {unit_arms}\
                                 other => Err(::serde::Error::message(format!(\
                                     \"unknown variant `{{other}}` for {name}\"))),\n\
                             }};\n\
                         }}\n\
                         let obj = value.as_object()\
                             .ok_or_else(|| ::serde::Error::expected(\"string or object\", \"{name}\", value))?;\n\
                         if obj.len() != 1 {{\n\
                             return Err(::serde::Error::message(\
                                 \"expected single-key variant object for {name}\".to_string()));\n\
                         }}\n\
                         let (tag, payload) = &obj[0];\n\
                         let _ = payload;\n\
                         match tag.as_str() {{\n\
                             {tagged_arms}\
                             other => Err(::serde::Error::message(format!(\
                                 \"unknown variant `{{other}}` for {name}\"))),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    };
    body.parse()
        .expect("serde shim derive: generated invalid Rust")
}
