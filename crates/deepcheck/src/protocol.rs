//! M002 — the per-communicator send/recv protocol matcher.
//!
//! M001's tag check treats a crate as one flat tag space; that misses the
//! two protocol bugs the cluster-booster offload path actually produces:
//! a literal tag sent on one communicator but awaited on another (the
//! rendezvous never happens even though the tag "matches" crate-wide),
//! and a typed/bytes or element-width disagreement between the two ends
//! (the receive decodes garbage or errors at runtime).
//!
//! The matcher indexes every send/receive call site (`send`, `isend`,
//! `send_slice`, `recv_into`, `send_bytes`, `irecv_bytes`, …) by
//! `(communicator, literal tag)`. The communicator key comes from the
//! target argument: `world` for a bare rank, otherwise the identifier
//! chain of the communicator in a `(comm, rank)` target (`self.parent`,
//! `ic`, …); call sites whose communicator is an expression are opaque
//! and disable the cross-communicator checks, as do
//! wildcard/dynamic tags on the affected communicator — same conservative
//! posture as M001. Element widths come from explicit turbofish types
//! (`send::<u64>` vs `recv_into::<f32>`); inferred types stay unknown and
//! are never flagged.

use crate::lexer::{Tok, TokKind};
use crate::lints::{call_arg, classify_tag_arg, push, Finding, TagArg};
use crate::locks::FileInput;
use std::collections::{BTreeMap, BTreeSet};

/// Wire framing family of a call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Datatype-framed (`send`/`recv`/`send_slice`/`recv_into` families).
    Typed,
    /// Raw-Bytes framed (`send_bytes`/`recv_bytes` and their posted forms).
    Bytes,
}

/// (method, framing) of every send and receive, blocking and posted.
/// Each takes the same `(target, tag, ..)` arguments, so the
/// communicator comes from argument 0 ([`target_comm_key`]) and the tag
/// from argument 1.
const SENDS: &[(&str, Kind)] = &[
    ("send", Kind::Typed),
    ("isend", Kind::Typed),
    ("send_slice", Kind::Typed),
    ("isend_slice", Kind::Typed),
    ("send_bytes", Kind::Bytes),
    ("isend_bytes", Kind::Bytes),
];

const RECVS: &[(&str, Kind)] = &[
    ("recv", Kind::Typed),
    ("irecv", Kind::Typed),
    ("recv_into", Kind::Typed),
    ("irecv_into", Kind::Typed),
    ("recv_bytes", Kind::Bytes),
    ("irecv_bytes", Kind::Bytes),
];

/// One indexed call site.
struct Site {
    path: String,
    line: u32,
    width: Option<u8>,
    kind: Kind,
}

#[derive(Default)]
struct CrateIndex {
    sends: BTreeMap<(String, u64), Vec<Site>>,
    recvs: BTreeMap<(String, u64), Vec<Site>>,
    /// Communicators with a dynamic-tag send (their receives can match
    /// anything the dynamic site produces).
    dynamic_send: BTreeSet<String>,
    /// Communicators with a wildcard or dynamic-tag receive.
    open_recv: BTreeSet<String>,
    /// A send/recv with an opaque comm expression was seen — the
    /// cross-communicator checks are unreliable, drop them.
    opaque_send: bool,
    opaque_recv: bool,
}

/// Run the protocol matcher over one crate.
pub fn run_crate(files: &[FileInput<'_>], out: &mut Vec<Finding>) {
    let mut idx = CrateIndex::default();
    for f in files {
        index_file(f, &mut idx);
    }

    // Cross-communicator rendezvous: a literal tag awaited on one comm but
    // produced only on another (and vice versa).
    for (&(ref comm, tag), sites) in &idx.recvs {
        if idx.sends.contains_key(&(comm.clone(), tag))
            || idx.dynamic_send.contains(comm)
            || idx.opaque_send
        {
            continue;
        }
        let elsewhere: Vec<&String> = idx
            .sends
            .keys()
            .filter(|(c, t)| *t == tag && c != comm)
            .map(|(c, _)| c)
            .collect();
        if elsewhere.is_empty() {
            continue; // M001 already covers tags never sent at all
        }
        for s in sites {
            push(
                out,
                "M002",
                &s.path,
                s.line,
                format!(
                    "tag {tag} is received on communicator `{comm}` but sent only on `{}` — \
                     mismatched communicators never rendezvous",
                    elsewhere[0]
                ),
            );
        }
    }
    for (&(ref comm, tag), sites) in &idx.sends {
        if idx.recvs.contains_key(&(comm.clone(), tag))
            || idx.open_recv.contains(comm)
            || idx.opaque_recv
        {
            continue;
        }
        let elsewhere: Vec<&String> = idx
            .recvs
            .keys()
            .filter(|(c, t)| *t == tag && c != comm)
            .map(|(c, _)| c)
            .collect();
        if elsewhere.is_empty() {
            continue;
        }
        for s in sites {
            push(
                out,
                "M002",
                &s.path,
                s.line,
                format!(
                    "tag {tag} is sent on communicator `{comm}` but received only on `{}` — \
                     mismatched communicators never rendezvous",
                    elsewhere[0]
                ),
            );
        }
    }

    // Framing and element width: both ends of a (comm, tag) flow must use
    // the same wire family, and explicit element widths must agree.
    for (key, recv_sites) in &idx.recvs {
        let Some(send_sites) = idx.sends.get(key) else {
            continue;
        };
        let (comm, tag) = (&key.0, key.1);
        for r in recv_sites {
            if send_sites.iter().all(|s| s.kind != r.kind) {
                let (rk, sk) = match r.kind {
                    Kind::Typed => ("typed", "bytes"),
                    Kind::Bytes => ("bytes", "typed"),
                };
                push(
                    out,
                    "M002",
                    &r.path,
                    r.line,
                    format!(
                        "tag {tag} on communicator `{comm}` is received via the {rk} API but \
                         sent via the {sk} API — the wire framing will not match"
                    ),
                );
                continue;
            }
            let Some(w) = r.width else { continue };
            let widths: BTreeSet<u8> = send_sites.iter().filter_map(|s| s.width).collect();
            let any_unknown = send_sites.iter().any(|s| s.width.is_none());
            if !widths.is_empty() && !widths.contains(&w) && !any_unknown {
                push(
                    out,
                    "M002",
                    &r.path,
                    r.line,
                    format!(
                        "tag {tag} on communicator `{comm}` is received as {w}-byte elements \
                         but sent as {}-byte elements — the datatype widths disagree",
                        widths.iter().next().expect("non-empty")
                    ),
                );
            }
        }
    }
}

fn index_file(f: &FileInput<'_>, idx: &mut CrateIndex) {
    let toks = f.toks;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_punct(".") {
            continue;
        }
        let Some(m) = toks.get(i + 1) else { continue };
        if m.kind != TokKind::Ident {
            continue;
        }
        let send = SENDS.iter().find(|(n, _)| *n == m.text);
        let recv = RECVS.iter().find(|(n, _)| *n == m.text);
        let Some(&(_, kind)) = send.or(recv) else {
            continue;
        };
        let Some((open, width)) = call_open(toks, i + 2) else {
            continue;
        };
        let comm = call_arg(toks, open, 0).and_then(|a| target_comm_key(toks, a));
        let is_send = send.is_some();
        let Some(comm) = comm else {
            if is_send {
                idx.opaque_send = true;
            } else {
                idx.opaque_recv = true;
            }
            continue;
        };
        let tag = match call_arg(toks, open, 1) {
            Some(a) => classify_tag_arg(toks, a),
            None => TagArg::Dynamic,
        };
        let site = Site {
            path: f.path.to_string(),
            line: m.line,
            width,
            kind,
        };
        match (is_send, tag) {
            (true, TagArg::Literal(v)) => idx.sends.entry((comm, v)).or_default().push(site),
            (true, _) => {
                idx.dynamic_send.insert(comm);
            }
            (false, TagArg::Literal(v)) => idx.recvs.entry((comm, v)).or_default().push(site),
            (false, _) => {
                idx.open_recv.insert(comm);
            }
        }
    }
}

/// Resolve the call's opening paren starting at the token after the
/// method name, tolerating a turbofish — whose type arguments also yield
/// the element width when they name a fixed-width primitive.
fn call_open(toks: &[Tok], mut p: usize) -> Option<(usize, Option<u8>)> {
    let mut width = None;
    if toks.get(p).is_some_and(|t| t.is_punct("::")) {
        let mut depth = 0i32;
        p += 1;
        while p < toks.len() {
            let t = &toks[p];
            if t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(">") {
                depth -= 1;
                if depth == 0 {
                    p += 1;
                    break;
                }
            } else if width.is_none() && t.kind == TokKind::Ident {
                width = prim_width(&t.text);
            }
            p += 1;
        }
    }
    if toks.get(p).is_some_and(|t| t.is_punct("(")) {
        Some((p, width))
    } else {
        None
    }
}

fn prim_width(name: &str) -> Option<u8> {
    match name {
        "u8" | "i8" => Some(1),
        "u16" | "i16" => Some(2),
        "u32" | "i32" | "f32" => Some(4),
        "u64" | "i64" | "f64" | "usize" | "isize" => Some(8),
        _ => None,
    }
}

/// The communicator key of a target argument: `world` for a bare rank
/// (`1`, `next`, `Some(0)`, `None`), the identifier chain of the first
/// element for a `(comm, rank)` tuple (`(&self.parent, 0)` →
/// `self.parent`).
fn target_comm_key(toks: &[Tok], start: usize) -> Option<String> {
    let is_tuple =
        toks.get(start).is_some_and(|t| t.is_punct("(")) && call_arg(toks, start, 1).is_some();
    if is_tuple {
        comm_key(toks, start + 1)
    } else {
        Some("world".to_string())
    }
}

/// The identifier chain of a comm expression (`&self.parent` →
/// `self.parent`). Any call, index, or path expression makes the comm
/// opaque (`None`).
fn comm_key(toks: &[Tok], start: usize) -> Option<String> {
    let mut parts: Vec<&str> = Vec::new();
    let mut k = start;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct(",") || t.is_punct(")") {
            break;
        }
        if t.is_punct("&") || t.is_punct(".") {
            // borrow / field separator — fine
        } else if t.kind == TokKind::Ident {
            parts.push(t.text.as_str());
        } else {
            return None;
        }
        k += 1;
    }
    if parts.is_empty() {
        None
    } else {
        Some(parts.join("."))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn m002(src: &str) -> Vec<(String, u32)> {
        let toks = tokenize(src);
        let files = [FileInput {
            path: "x.rs",
            raw: src,
            toks: &toks,
        }];
        let mut out = Vec::new();
        run_crate(&files, &mut out);
        out.into_iter().map(|f| (f.message, f.line)).collect()
    }

    #[test]
    fn cross_comm_tag_mismatch_fires() {
        let src = "\
fn f(r: &mut Rank, a: &Communicator, b: &Communicator) {
    r.send((a, 1), 7, &x).unwrap();
    let y = r.recv::<u64>((b, None), Some(7)).unwrap();
}
";
        let msgs = m002(src);
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs[0].0.contains("never rendezvous"), "{msgs:?}");
    }

    #[test]
    fn same_comm_flow_is_clean() {
        let src = "\
fn f(r: &mut Rank, a: &Communicator) {
    r.send((a, 1), 7, &x).unwrap();
    let y = r.recv::<u64>((a, None), Some(7)).unwrap();
}
";
        assert!(m002(src).is_empty());
    }

    #[test]
    fn width_mismatch_fires_on_explicit_turbofish() {
        let src = "\
fn f(r: &mut Rank) {
    r.send::<u64>(1, 7, &x).unwrap();
    let y = r.recv::<u32>(None, Some(7)).unwrap();
}
";
        let msgs = m002(src);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].0.contains("widths disagree"), "{msgs:?}");
        assert_eq!(msgs[0].1, 3);
    }

    #[test]
    fn typed_bytes_framing_mismatch_fires() {
        let src = "\
fn f(r: &mut Rank, ic: &Intercomm) {
    r.send_bytes((ic, 0), 9, payload).unwrap();
    let y = r.recv::<Vec<u8>>((ic, None), Some(9)).unwrap();
}
";
        let msgs = m002(src);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].0.contains("wire framing"), "{msgs:?}");
    }

    #[test]
    fn dynamic_and_wildcard_sites_disable_the_checks() {
        let src = "\
fn f(r: &mut Rank, a: &Communicator, b: &Communicator, tag: u64) {
    r.send((a, 1), tag, &x).unwrap();
    let y = r.recv::<u64>((b, None), Some(7)).unwrap();
    r.send((b, 1), 8, &x).unwrap();
    let z = r.recv::<u64>((b, None), None).unwrap();
}
";
        assert!(m002(src).is_empty(), "{:?}", m002(src));
    }

    #[test]
    fn inferred_widths_are_never_flagged() {
        let src = "\
fn f(r: &mut Rank) {
    r.send(1, 7, &vals).unwrap();
    let y = r.recv::<u32>(None, Some(7)).unwrap();
}
";
        assert!(m002(src).is_empty());
    }
}
