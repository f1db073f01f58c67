//! Workspace-wide call graph with held-lock-set propagation.
//!
//! The per-function lock scanner (PR 2) could not see edges through
//! calls: a callback locking `stats`, invoked by a wrapper while it
//! holds a `conn` lock, had to be hand-encoded in the documented order.
//! This module closes that gap:
//!
//! 1. **Extraction** — every function ([`crate::lexer::functions`]) and
//!    every closure literal becomes a node. One linear walk per body
//!    collects, with a binding-aware local guard simulation, the lock
//!    acquisitions, call sites, blocking operations, and closure
//!    definitions, each annotated with the locally held guard set.
//! 2. **Resolution** — call sites resolve to candidate nodes:
//!    `Type::name(…)` through `impl Type`, `self.name(…)` through the
//!    enclosing impl, `self.field.name(…)` through a struct-field type
//!    map, bare `name(…)` to free functions, and otherwise by unique
//!    name — except names that collide with std prelude methods
//!    (`push`, `get`, …), which resolve only through a typed receiver.
//!    Ambiguity yields the union of candidates (conservative).
//! 3. **Fixpoint** — ambient held sets `H(F)` ("locks that may be held
//!    when `F` runs") propagate caller → callee until stable, with a
//!    provenance chain per lock for diagnostics. Closures inherit the
//!    held set at their definition site plus, when passed to a function
//!    that invokes a callable parameter, that function's
//!    `callback_held` set — this is how a callback-carried edge (the
//!    `conn` → `stats` of `callback_edge_is_rediscovered`) is found
//!    with zero policy hints.
//!
//! Guard *moves* are modeled so the hybrid store's guard-threading
//! (`append` → `spill_trip` → `flush_one`, and `wait(&cv, g)`) does not
//! produce false self-edges or false blocking reports: a bare live
//! guard identifier passed by value to a `MutexGuard`-typed parameter
//! leaves the caller's held set and enters the callee as an entry
//! guard; `drop(g)` kills a binding; a call that moved a guard in and
//! returns one rebinds it; `g = g2;` renames; `wait(&cv, g)` releases
//! `g` for the duration of the blocking wait.

use crate::lexer::{self, FnDef, ScannedFile};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Method names that collide with std prelude/collection methods: a
/// bare `.name(…)` with an untyped receiver is never resolved through
/// these (a `Vec::push` must not link to our `DispatchQueue::push`).
#[rustfmt::skip]
const STD_METHODS: &[&str] = &[
    "push", "pop", "insert", "get", "get_mut", "remove", "len", "is_empty", "clear", "contains",
    "contains_key", "clone", "next", "iter", "iter_mut", "into_iter", "write", "read", "flush",
    "send", "recv", "take", "drain", "extend", "entry", "keys", "values", "map", "and_then",
    "unwrap_or", "unwrap_or_else", "unwrap_or_default", "ok_or", "ok_or_else", "join", "lock",
    "wait", "new", "default", "fmt", "drop", "eq", "cmp", "hash", "from", "into", "as_ref",
    "as_mut", "to_string", "to_vec", "push_back", "push_front", "pop_front", "pop_back",
    "split_off", "retain", "position", "find", "any", "all", "min", "max", "abs", "swap",
    "replace", "get_or_insert_with", "sort", "sort_by", "sort_by_key", "dedup", "rev", "chain",
    "zip", "filter", "collect", "count", "sum", "last", "first", "expect", "unwrap", "starts_with",
    "ends_with", "trim", "split", "parse", "clamp", "notify_all", "notify_one", "load", "store",
    "fetch_add", "compare_exchange", "spawn", "accept", "connect", "shutdown", "set_nodelay",
    "flat_map", "copied", "cloned", "cursor", "resize", "truncate", "append", "seek", "index",
];

/// Std type-path heads whose associated calls are never resolved into
/// the lint scope.
const STD_TYPES: &[&str] = &[
    "Vec",
    "String",
    "Box",
    "Arc",
    "Rc",
    "BTreeMap",
    "BTreeSet",
    "HashMap",
    "HashSet",
    "VecDeque",
    "Option",
    "Result",
    "Some",
    "Ok",
    "Err",
    "io",
    "fs",
    "std",
    "thread",
    "mem",
    "ptr",
    "fmt",
    "Instant",
    "Duration",
    "SystemTime",
    "SocketAddr",
    "TcpStream",
    "TcpListener",
    "Ordering",
    "AtomicBool",
    "AtomicU64",
    "AtomicUsize",
    "Mutex",
    "MutexGuard",
    "Condvar",
    "PathBuf",
    "Path",
    "File",
    "OpenOptions",
    "SeekFrom",
    "Cow",
    "Cell",
    "RefCell",
    "Iterator",
    "IntoIterator",
    "Default",
    "Clone",
    "Copy",
    "Drop",
    "From",
    "Into",
    "TryFrom",
    "char",
    "u8",
    "u16",
    "u32",
    "u64",
    "usize",
    "i8",
    "i16",
    "i32",
    "i64",
    "isize",
    "f32",
    "f64",
    "str",
    "slice",
    "array",
];

/// Blocking operations: `(pattern, human label)`. A pattern starting
/// with `.` matches as a method call; otherwise it must sit on an
/// identifier boundary. The interprocedural pass makes a long list
/// unnecessary — `drain_to_remote`-style wrappers are reached through
/// the call graph down to these primitives.
const BLOCKING: &[(&str, &str)] = &[
    ("thread::sleep", "thread sleep"),
    ("File::open", "file open"),
    ("File::create", "file create"),
    ("OpenOptions::new", "file open"),
    ("fs::write", "file write"),
    ("fs::read", "file read"),
    ("fs::remove_file", "file remove"),
    ("fs::remove_dir", "file remove"),
    ("fs::create_dir", "dir create"),
    ("fs::rename", "file rename"),
    ("fs::copy", "file copy"),
    ("fs::metadata", "fs metadata"),
    ("TcpStream::connect", "socket connect"),
    (".write_all(", "stream write"),
    (".read_exact(", "stream read"),
    (".read_exact_at(", "file read"),
    (".read_to_end(", "stream read"),
    (".flush(", "stream flush"),
    (".sync_all(", "file sync"),
    (".sync_data(", "file sync"),
    (".seek(", "file seek"),
    (".recv()", "channel receive"),
    (".recv_timeout(", "channel receive"),
    (".accept(", "socket accept"),
];

/// One `A → B` acquisition edge with its witness site and, for edges
/// that cross function boundaries, the call chain that carries `A` to
/// the acquisition of `B`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Lock already held.
    pub held: String,
    /// Lock acquired while holding `held`.
    pub acquired: String,
    /// Witness file.
    pub file: PathBuf,
    /// Witness line (1-based).
    pub line: usize,
    /// Call-chain frames (`Fn (file:line)`) from where `held` was
    /// acquired to the function acquiring `acquired`; empty for edges
    /// local to one function.
    pub chain: Vec<String>,
}

/// One blocking operation that may execute while locks are held.
#[derive(Debug, Clone)]
pub struct BlockingSite {
    /// What blocks (`thread sleep`, `stream write`, …).
    pub what: &'static str,
    /// The pattern that matched, for allowlist `contains` matching.
    pub code: String,
    /// Witness file.
    pub file: PathBuf,
    /// Witness line.
    pub line: usize,
    /// Locks that may be held here, each with its provenance chain
    /// (empty chain = held locally in this function).
    pub held: Vec<(String, Vec<String>)>,
    /// Qualified name of the function containing the site.
    pub in_fn: String,
}

/// One blocking operation transitively reachable from a function,
/// regardless of locks held — the raw material of the
/// nonblocking-context lint, which bans blocking from event-loop code
/// outright rather than only under a lock.
#[derive(Debug, Clone)]
pub struct BlockingReach {
    /// Qualified name of the function the reachability is rooted at.
    pub from_fn: String,
    /// File defining `from_fn` (nonblocking contexts are per-file).
    pub from_file: PathBuf,
    /// What blocks (`thread sleep`, `stream write`, …).
    pub what: &'static str,
    /// The pattern that matched, for allowlist `contains` matching.
    pub code: String,
    /// File of the blocking site itself.
    pub file: PathBuf,
    /// Line of the blocking site.
    pub line: usize,
    /// Call-chain frames from `from_fn` down to the site; empty when
    /// the site sits in `from_fn`'s own body.
    pub chain: Vec<String>,
}

/// The result of the interprocedural analysis.
#[derive(Debug, Default)]
pub struct Analysis {
    /// All lock-nesting edges, local and propagated.
    pub edges: Vec<Edge>,
    /// Blocking operations with a nonempty may-held set.
    pub blocking: Vec<BlockingSite>,
    /// Blocking operations each function may reach on its own thread
    /// (held or not); closures handed to `spawn` run elsewhere and are
    /// excluded.
    pub reachable_blocking: Vec<BlockingReach>,
    /// `fn qualified name → lock → chain`: every lock a function may
    /// acquire directly or transitively, with a witness call chain.
    pub transitive_acquires: BTreeMap<String, BTreeMap<String, Vec<String>>>,
    /// `fn qualified name → lock → chain`: locks held at the point a
    /// function invokes one of its callable parameters.
    pub callback_held: BTreeMap<String, BTreeMap<String, Vec<String>>>,
}

// ---------------------------------------------------------------------
// Per-function body summaries (computed once, reused at fixpoint).

#[derive(Debug, Clone)]
struct LocalHeld {
    lock: String,
    line: usize,
}

#[derive(Debug)]
struct Acq {
    name: String,
    line: usize,
    held_local: Vec<LocalHeld>,
}

#[derive(Debug)]
struct CallSite {
    candidates: Vec<usize>,
    line: usize,
    held_local: Vec<LocalHeld>,
    /// Lock names moved into the callee at this site (by-value guards).
    moved: Vec<String>,
    /// True when the callee text names a callable parameter of the
    /// enclosing function (a callback invocation).
    invokes_param: bool,
    /// Bare-identifier arguments that are callable parameters of the
    /// *caller* (callback forwarding).
    forwards_callback: bool,
    /// Closure nodes passed as arguments at this site.
    closures: Vec<usize>,
    /// Suppress held-set inheritance into the closures (thread spawn).
    detached: bool,
}

#[derive(Debug)]
struct BlockOp {
    what: &'static str,
    code: String,
    line: usize,
    held_local: Vec<LocalHeld>,
    /// Guard released for the duration of the wait, if any.
    waived: Option<String>,
}

#[derive(Debug)]
struct ClosureDef {
    node: usize,
    line: usize,
    held_local: Vec<LocalHeld>,
}

#[derive(Debug, Default)]
struct Summary {
    acquisitions: Vec<Acq>,
    calls: Vec<CallSite>,
    blocking: Vec<BlockOp>,
    closures: Vec<ClosureDef>,
}

#[derive(Debug)]
struct Node {
    qualified: String,
    file: PathBuf,
    /// Names of `Fn`-bound parameters (callback slots).
    callable_params: Vec<String>,
    /// Guard-typed parameters: (binding name, lock name).
    guard_params: Vec<(String, String)>,
    /// Parameter names in order (for positional guard-move matching).
    /// Indices (into the parameter list) that are guard-typed.
    guard_param_idx: Vec<usize>,
    returns_guard: bool,
    summary: Summary,
}

/// Chain map: lock name → provenance frames.
type Held = BTreeMap<String, Vec<String>>;

/// Run the interprocedural analysis over `files` (relative path +
/// scanned contents). `primitive_files` are path suffixes of the sync
/// primitive layer (its `lock`/`wait` helpers), which is excluded from
/// blocking analysis.
pub fn analyze(files: &[(PathBuf, ScannedFile)], primitive_files: &[String]) -> Analysis {
    let mut nodes: Vec<Node> = Vec::new();
    let mut field_types: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    // (file idx, FnDef) pending body analysis.
    let mut defs: Vec<(usize, FnDef)> = Vec::new();

    for (fi, (_path, scanned)) in files.iter().enumerate() {
        for (name, head) in lexer::struct_fields(&scanned.masked) {
            field_types.entry(name).or_default().insert(head);
        }
        for def in lexer::functions(&scanned.masked) {
            // Skip functions defined inside test regions.
            let test = scanned
                .lines
                .get(def.line.saturating_sub(1))
                .is_some_and(|l| l.in_test);
            if !test {
                defs.push((fi, def));
            }
        }
    }

    // Node table: one per function; closures are appended during body
    // analysis. Build the resolution index over the named functions.
    for (fi, def) in &defs {
        nodes.push(make_node(&files[*fi].0, def));
    }
    let mut by_method: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut by_free: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (idx, (_, def)) in defs.iter().enumerate() {
        match &def.self_type {
            Some(t) => by_method
                .entry((t.clone(), def.name.clone()))
                .or_default()
                .push(idx),
            None => by_free.entry(def.name.clone()).or_default().push(idx),
        }
        by_name.entry(def.name.clone()).or_default().push(idx);
    }
    let index = Index {
        by_method,
        by_free,
        by_name,
        field_types,
    };

    // Body analysis: walk every named function; closures found inside
    // are pushed as new nodes and queued for their own walk.
    // (node index, file index, body span, entry-held guards)
    type WalkItem = (usize, usize, (usize, usize), Vec<(String, String)>);
    let mut queue: Vec<WalkItem> = Vec::new();
    for (idx, (fi, def)) in defs.iter().enumerate() {
        if let Some(span) = def.body {
            let entry_guards = nodes[idx].guard_params.clone();
            queue.push((idx, *fi, span, entry_guards));
        }
    }
    let mut qi = 0usize;
    while qi < queue.len() {
        let (node, fi, span, entry_guards) = queue[qi].clone();
        qi += 1;
        let summary = walk_body(
            node,
            &files[fi].1,
            &files[fi].0,
            span,
            &entry_guards,
            &index,
            &mut nodes,
            &mut |closure_node, closure_span| {
                queue.push((closure_node, fi, closure_span, Vec::new()));
            },
        );
        nodes[node].summary = summary;
    }

    fixpoint(&mut nodes, primitive_files)
}

struct Index {
    by_method: BTreeMap<(String, String), Vec<usize>>,
    by_free: BTreeMap<String, Vec<usize>>,
    by_name: BTreeMap<String, Vec<usize>>,
    field_types: BTreeMap<String, BTreeSet<String>>,
}

fn make_node(file: &Path, def: &FnDef) -> Node {
    let callable_params: Vec<String> = def
        .params
        .iter()
        .filter(|p| is_callable(&p.ty, &def.bounds))
        .map(|p| p.name.clone())
        .collect();
    let mut guard_params = Vec::new();
    let mut guard_param_idx = Vec::new();
    for (i, p) in def.params.iter().enumerate() {
        if p.ty.contains("MutexGuard") {
            let lock = lexer::last_type_arg(&p.ty).to_lowercase();
            guard_params.push((p.name.clone(), lock));
            guard_param_idx.push(i);
        }
    }
    Node {
        qualified: def.qualified.clone(),
        file: file.to_path_buf(),
        callable_params,
        guard_params,
        guard_param_idx,
        returns_guard: def.ret.contains("MutexGuard"),
        summary: Summary::default(),
    }
}

/// Is a parameter type callable — `impl Fn…`, a bare `Fn…` bound, or a
/// generic whose bound mentions `Fn`?
fn is_callable(ty: &str, bounds: &str) -> bool {
    let t = ty.trim();
    for fnk in ["FnOnce", "FnMut", "Fn("] {
        if t.contains(fnk) {
            return true;
        }
    }
    // `f: F` with `F: FnOnce(…)` in the generics or where clause.
    let head = lexer::type_head(t);
    if head.is_empty() || head != t.trim_start_matches('&').trim() {
        return false;
    }
    for seg in lexer::split_top_level(bounds.trim_start_matches('<').trim_end_matches('>'), ',') {
        let seg = seg.trim().trim_start_matches("where ").trim();
        if let Some((name, bound)) = seg.split_once(':') {
            if name.trim() == head && ["FnOnce", "FnMut", "Fn("].iter().any(|f| bound.contains(f)) {
                return true;
            }
        }
    }
    false
}

// ---------------------------------------------------------------------
// Body walk: binding-aware local guard simulation + event collection.

#[derive(Debug, Clone)]
struct Guard {
    lock: String,
    binding: Option<String>,
    depth: usize,
    temporary: bool,
    line: usize,
}

#[allow(clippy::too_many_arguments)]
fn walk_body(
    node: usize,
    scanned: &ScannedFile,
    file: &Path,
    span: (usize, usize),
    entry_guards: &[(String, String)],
    index: &Index,
    nodes: &mut Vec<Node>,
    enqueue_closure: &mut dyn FnMut(usize, (usize, usize)),
) -> Summary {
    let chars: Vec<char> = scanned.masked.chars().collect();
    let mut line_of = Vec::with_capacity(chars.len());
    {
        let mut ln = 1usize;
        for &c in &chars {
            line_of.push(ln);
            if c == '\n' {
                ln += 1;
            }
        }
    }
    let line_at = |off: usize| line_of.get(off).copied().unwrap_or(1);
    let in_test = |off: usize| {
        scanned
            .lines
            .get(line_at(off).saturating_sub(1))
            .is_some_and(|l| l.in_test)
    };

    // Closure literals in this body become their own nodes; the walk
    // skips their spans.
    let closure_spans = find_closures(&chars, span);
    let mut closure_nodes: Vec<(usize, (usize, usize))> = Vec::new();
    for &(cs, body_start, ce) in &closure_spans {
        let qualified = format!("{}::{{closure@{}}}", nodes[node].qualified, line_at(cs));
        let idx = nodes.len();
        nodes.push(Node {
            qualified,
            file: file.to_path_buf(),
            callable_params: Vec::new(),
            guard_params: Vec::new(),
            guard_param_idx: Vec::new(),
            returns_guard: false,
            summary: Summary::default(),
        });
        // The closure's own walk covers only its body — re-walking the
        // `move |…|` header would re-detect the closure forever.
        enqueue_closure(idx, (body_start, ce));
        closure_nodes.push((idx, (cs, ce)));
    }
    let closure_at = |off: usize| {
        closure_nodes
            .iter()
            .find(|(_, (s, _))| *s == off)
            .map(|&(idx, _)| idx)
    };
    let skip_span = |off: usize| {
        closure_spans
            .iter()
            .find(|&&(s, _, _)| s == off)
            .map(|&(_, _, e)| e)
    };

    let mut summary = Summary::default();
    let mut guards: Vec<Guard> = entry_guards
        .iter()
        .map(|(binding, lock)| Guard {
            lock: lock.clone(),
            binding: Some(binding.clone()),
            depth: 0,
            temporary: false,
            line: line_at(span.0),
        })
        .collect();
    let held_snapshot = |guards: &[Guard]| -> Vec<LocalHeld> {
        guards
            .iter()
            .map(|g| LocalHeld {
                lock: g.lock.clone(),
                line: g.line,
            })
            .collect()
    };
    let my_callables = nodes[node].callable_params.clone();

    let mut depth = 0usize;
    let mut i = span.0;
    while i < span.1 {
        if let Some(end) = skip_span(i) {
            // Closure definition: record the held set at its site —
            // unless an already-recorded call site claimed it as an
            // argument (the call processing owns its held set then, and
            // a `spawn` argument must inherit nothing at all).
            if let Some(cn) = closure_at(i) {
                let claimed = summary.calls.iter().any(|c| c.closures.contains(&cn));
                if !claimed {
                    summary.closures.push(ClosureDef {
                        node: cn,
                        line: line_at(i),
                        held_local: held_snapshot(&guards),
                    });
                }
            }
            i = end;
            continue;
        }
        let c = chars[i];
        match c {
            '{' => {
                depth += 1;
                i += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth && !(g.temporary && g.depth == depth));
                i += 1;
            }
            ';' => {
                // `a = b;` guard rename before temporaries die.
                apply_rename(&chars, span.0, i, &mut guards);
                guards.retain(|g| !(g.temporary && depth <= g.depth));
                i += 1;
            }
            'l' if is_lock_call(&chars, i) => {
                let (name, end) = lock_name(&chars, i);
                if let Some(name) = name {
                    if !in_test(i) {
                        summary.acquisitions.push(Acq {
                            name: name.clone(),
                            line: line_at(i),
                            held_local: held_snapshot(&guards),
                        });
                    }
                    let binding = stmt_binding(&chars, span.0, i);
                    guards.retain(|g| {
                        g.binding.is_none() || g.binding != binding || binding.is_none()
                    });
                    guards.push(Guard {
                        lock: name,
                        binding: binding.clone(),
                        depth,
                        temporary: binding.is_none(),
                        line: line_at(i),
                    });
                }
                i = end;
            }
            _ if c == '(' && i > 0 && lexer::is_ident(chars[i - 1]) => {
                // A call site. Macro invocations (`name!(`) are skipped.
                let callee = callee_text(&chars, i);
                if callee.is_empty() || chars[i - 1] == '!' {
                    i += 1;
                    continue;
                }
                let args_end = lexer::matching_brace(&chars, i).unwrap_or(i);
                let args = call_args(&chars, i, args_end);
                if in_test(i) {
                    i += 1;
                    continue;
                }
                handle_call(
                    &callee,
                    &args,
                    i,
                    line_at(i),
                    depth,
                    &chars,
                    span.0,
                    &mut guards,
                    &my_callables,
                    index,
                    nodes,
                    node,
                    &closure_nodes,
                    &mut summary,
                    &held_snapshot,
                );
                // Keep scanning inside the argument list (nested calls,
                // nested lock temporaries).
                i += 1;
            }
            _ => {
                if !in_test(i) {
                    if let Some((what, code)) = blocking_at(&chars, i, scanned, line_at(i)) {
                        summary.blocking.push(BlockOp {
                            what,
                            code,
                            line: line_at(i),
                            held_local: held_snapshot(&guards),
                            waived: None,
                        });
                        // Advance past the pattern head so `fs::write`
                        // does not re-fire at `write`.
                        i += 2;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
    summary
}

/// Handle one call site: classify, resolve, model guard moves/waits.
#[allow(clippy::too_many_arguments)]
fn handle_call(
    callee: &str,
    args: &[(String, usize)],
    off: usize,
    line: usize,
    depth: usize,
    chars: &[char],
    body_start: usize,
    guards: &mut Vec<Guard>,
    my_callables: &[String],
    index: &Index,
    nodes: &[Node],
    node: usize,
    closure_nodes: &[(usize, (usize, usize))],
    summary: &mut Summary,
    held_snapshot: &dyn Fn(&[Guard]) -> Vec<LocalHeld>,
) {
    let bare_args: Vec<(usize, String)> = args
        .iter()
        .enumerate()
        .filter(|(_, (a, _))| {
            !a.is_empty()
                && a.chars().all(lexer::is_ident)
                && !a.chars().next().is_some_and(|c| c.is_uppercase())
        })
        .map(|(i, (a, _))| (i, a.clone()))
        .collect();

    // `drop(g)`: kill the binding, no event.
    if callee == "drop" {
        if let Some((_, name)) = bare_args.first() {
            guards.retain(|g| g.binding.as_deref() != Some(name));
        }
        return;
    }

    // `wait(&cv, g)` / `cv.wait(g)`: the guard is released for the
    // duration of the blocking wait and reacquired on wake.
    if callee == "wait" || callee.ends_with(".wait") || callee.ends_with("::wait") {
        let mut waived = None;
        for (_, name) in &bare_args {
            if let Some(pos) = guards
                .iter()
                .position(|g| g.binding.as_deref() == Some(name.as_str()))
            {
                let g = guards.remove(pos);
                waived = Some(g.lock.clone());
                // Rebound by the enclosing `g = wait(…)` statement.
                if let Some(binding) = stmt_binding(chars, body_start, off) {
                    guards.push(Guard {
                        lock: g.lock,
                        binding: Some(binding),
                        depth,
                        temporary: false,
                        line: g.line,
                    });
                }
            }
        }
        summary.blocking.push(BlockOp {
            what: "condvar wait",
            code: format!("{callee}("),
            line,
            held_local: held_snapshot(guards),
            waived,
        });
        return;
    }

    let my_idx = node;
    let invokes_param = my_callables.iter().any(|p| p == callee);
    let forwards_callback = bare_args
        .iter()
        .any(|(_, a)| my_callables.iter().any(|p| p == a));

    let candidates = if invokes_param {
        Vec::new()
    } else {
        resolve(callee, nodes, my_idx, index)
    };

    // Guard moves: a bare live-guard identifier at a position the
    // callee types as `MutexGuard` transfers ownership.
    let mut moved = Vec::new();
    if !candidates.is_empty() {
        for (pos, name) in &bare_args {
            let takes_guard = candidates
                .iter()
                .any(|&c| nodes[c].guard_param_idx.contains(pos));
            if !takes_guard {
                continue;
            }
            if let Some(gpos) = guards
                .iter()
                .position(|g| g.binding.as_deref() == Some(name.as_str()))
            {
                let g = guards.remove(gpos);
                moved.push(g.lock.clone());
            }
        }
        // A call that moved a guard in and returns one hands it back to
        // the statement's binding (`let (g2, res) = self.spill_trip(g)`).
        if !moved.is_empty() && candidates.iter().any(|&c| nodes[c].returns_guard) {
            if let Some(binding) = stmt_binding(chars, body_start, off) {
                guards.push(Guard {
                    lock: moved[0].clone(),
                    binding: Some(binding),
                    depth,
                    temporary: false,
                    line,
                });
            }
        }
    }

    // Closure arguments defined at this site.
    let closures: Vec<usize> = args
        .iter()
        .filter_map(|(text, arg_off)| {
            let t = text.trim_start();
            if t.starts_with('|') || t.starts_with("move") {
                closure_nodes
                    .iter()
                    .find(|(_, (s, e))| *arg_off <= *s && *s < *e && *s < arg_off + text.len() + 8)
                    .map(|&(idx, _)| idx)
            } else {
                None
            }
        })
        .collect();
    let detached = callee.ends_with("spawn");

    summary.calls.push(CallSite {
        candidates,
        line,
        held_local: held_snapshot(guards),
        moved,
        invokes_param,
        forwards_callback,
        closures,
        detached,
    });
}

/// Resolve a call-site text to candidate node indices.
fn resolve(callee: &str, nodes: &[Node], caller: usize, index: &Index) -> Vec<usize> {
    let segs: Vec<&str> = callee
        .split(['.'])
        .flat_map(|s| s.split("::"))
        .filter(|s| !s.is_empty())
        .collect();
    let Some(&name) = segs.last() else {
        return Vec::new();
    };
    if name.chars().next().is_some_and(|c| c.is_uppercase()) {
        // Tuple-struct / enum-variant constructor.
        return Vec::new();
    }
    let fallback = |name: &str| -> Vec<usize> {
        if STD_METHODS.contains(&name) {
            return Vec::new();
        }
        index.by_name.get(name).cloned().unwrap_or_default()
    };
    if callee.contains("::") && !callee.contains('.') {
        // `Type::name(` — resolve through the impl index.
        let ty = segs[segs.len().saturating_sub(2)];
        if STD_TYPES.contains(&ty) {
            return Vec::new();
        }
        return index
            .by_method
            .get(&(ty.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_else(|| fallback(name));
    }
    if !callee.contains('.') {
        // Bare `name(` — a free function.
        return index.by_free.get(name).cloned().unwrap_or_default();
    }
    // Method call. Type the receiver if we can.
    let recv_segs = &segs[..segs.len() - 1];
    if recv_segs == ["self"] {
        if let Some(ty) = nodes[caller]
            .qualified
            .split("::")
            .next()
            .filter(|t| t.chars().next().is_some_and(|c| c.is_uppercase()))
        {
            if let Some(c) = index.by_method.get(&(ty.to_string(), name.to_string())) {
                return c.clone();
            }
        }
        return fallback(name);
    }
    // Only a field path (`self.store`, `shared.store`) is typed through
    // the field table; a bare local that shares a field's name (a guard
    // named after the `Mutex` field it locked) is not that field, so it
    // falls back to name matching.
    if let [_, .., field] = recv_segs {
        if let Some(heads) = index.field_types.get(*field) {
            if heads.len() == 1 {
                let head = heads.iter().next().cloned().unwrap_or_default();
                // A known field of a known (std) type: definitively not
                // ours — do not fall back to name matching.
                if STD_TYPES.contains(&head.as_str()) {
                    return Vec::new();
                }
                if let Some(c) = index.by_method.get(&(head.clone(), name.to_string())) {
                    return c.clone();
                }
                return Vec::new();
            }
        }
    }
    fallback(name)
}

// ---------------------------------------------------------------------
// Fixpoint: ambient held sets and callback sets.

fn fixpoint(nodes: &mut [Node], primitive_files: &[String]) -> Analysis {
    let n = nodes.len();
    let mut ambient: Vec<Held> = vec![Held::new(); n];
    let mut callback: Vec<Held> = vec![Held::new(); n];
    // Reverse edges for callback re-propagation: for each node, the
    // callers whose processing depends on its callback set.
    let mut cb_dependents: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for (idx, node) in nodes.iter().enumerate() {
        for call in &node.summary.calls {
            if !call.closures.is_empty() || call.forwards_callback {
                for &c in &call.candidates {
                    cb_dependents[c].insert(idx);
                }
            }
        }
    }

    let frame =
        |node: &Node, line: usize| format!("{} ({}:{})", node.qualified, node.file.display(), line);

    let mut work: Vec<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(f) = work.pop() {
        queued[f] = false;
        let mut grew: Vec<usize> = Vec::new();
        {
            let amb = ambient[f].clone();
            let node = &nodes[f];
            for call in &node.summary.calls {
                // Held set reaching the callee: ambient + local live at
                // the site, minus guards moved into this very call.
                let mut held: Held = amb.clone();
                for lh in &call.held_local {
                    held.entry(lh.lock.clone())
                        .or_insert_with(|| vec![frame(node, lh.line)]);
                }
                for m in &call.moved {
                    held.remove(m);
                }
                let mut step = held.clone();
                for chain in step.values_mut() {
                    chain.push(frame(node, call.line));
                }
                if call.invokes_param {
                    for (lock, chain) in &step {
                        if !callback[f].contains_key(lock) {
                            callback[f].insert(lock.clone(), chain.clone());
                            grew.extend(cb_dependents[f].iter().copied());
                        }
                    }
                    continue;
                }
                for &g in &call.candidates {
                    for (lock, chain) in &step {
                        if !ambient[g].contains_key(lock) {
                            ambient[g].insert(lock.clone(), chain.clone());
                            grew.push(g);
                        }
                    }
                    // Forwarding a callable parameter of ours into `g`:
                    // our callers' closures may run under whatever `g`
                    // runs its callbacks under.
                    if call.forwards_callback {
                        let cb_g = callback[g].clone();
                        for (lock, chain) in cb_g {
                            if let Entry::Vacant(slot) = callback[f].entry(lock) {
                                slot.insert(chain);
                                grew.extend(cb_dependents[f].iter().copied());
                            }
                        }
                    }
                    // Closures passed at this site may be invoked by
                    // `g` under its callback held set.
                    if !call.detached {
                        for &cl in &call.closures {
                            let cb_g = callback[g].clone();
                            for (lock, chain) in cb_g {
                                let mut chain = chain;
                                chain.push(frame(node, call.line));
                                if let Entry::Vacant(slot) = ambient[cl].entry(lock) {
                                    slot.insert(chain);
                                    grew.push(cl);
                                }
                            }
                        }
                    }
                }
                // Unresolved callee (or resolved): closures defined in
                // the argument list also inherit the held set at the
                // site — they run somewhere downstream of it.
                if !call.detached {
                    for &cl in &call.closures {
                        for (lock, chain) in &step {
                            if !ambient[cl].contains_key(lock) {
                                ambient[cl].insert(lock.clone(), chain.clone());
                                grew.push(cl);
                            }
                        }
                    }
                }
            }
            // Closure definitions outside call arguments (let-bound):
            // inherit the definition-site held set.
            for cd in &node.summary.closures {
                let mut held: Held = amb.clone();
                for lh in &cd.held_local {
                    held.entry(lh.lock.clone())
                        .or_insert_with(|| vec![frame(node, lh.line)]);
                }
                for (lock, mut chain) in held {
                    chain.push(frame(node, cd.line));
                    if let Entry::Vacant(slot) = ambient[cd.node].entry(lock) {
                        slot.insert(chain);
                        grew.push(cd.node);
                    }
                }
            }
        }
        for g in grew {
            if !queued[g] {
                queued[g] = true;
                work.push(g);
            }
        }
    }

    // Edges and blocking sites from the stabilized sets.
    let mut analysis = Analysis::default();
    let mut seen_edges: BTreeSet<(String, String, PathBuf, usize)> = BTreeSet::new();
    for (idx, node) in nodes.iter().enumerate() {
        for acq in &node.summary.acquisitions {
            for lh in &acq.held_local {
                let key = (
                    lh.lock.clone(),
                    acq.name.clone(),
                    node.file.clone(),
                    acq.line,
                );
                if seen_edges.insert(key) {
                    analysis.edges.push(Edge {
                        held: lh.lock.clone(),
                        acquired: acq.name.clone(),
                        file: node.file.clone(),
                        line: acq.line,
                        chain: Vec::new(),
                    });
                }
            }
            for (lock, chain) in &ambient[idx] {
                let key = (lock.clone(), acq.name.clone(), node.file.clone(), acq.line);
                if seen_edges.insert(key) {
                    let mut chain = chain.clone();
                    chain.push(frame(node, acq.line));
                    analysis.edges.push(Edge {
                        held: lock.clone(),
                        acquired: acq.name.clone(),
                        file: node.file.clone(),
                        line: acq.line,
                        chain,
                    });
                }
            }
        }
        let primitive = {
            let p = node.file.to_string_lossy().replace('\\', "/");
            primitive_files.iter().any(|s| p.ends_with(s.as_str()))
        };
        if !primitive {
            for b in &node.summary.blocking {
                let mut held: Vec<(String, Vec<String>)> = Vec::new();
                for lh in &b.held_local {
                    if Some(&lh.lock) == b.waived.as_ref() {
                        continue;
                    }
                    if !held.iter().any(|(l, _)| l == &lh.lock) {
                        held.push((lh.lock.clone(), Vec::new()));
                    }
                }
                for (lock, chain) in &ambient[idx] {
                    if Some(lock) == b.waived.as_ref() {
                        continue;
                    }
                    if !held.iter().any(|(l, _)| l == lock) {
                        held.push((lock.clone(), chain.clone()));
                    }
                }
                if !held.is_empty() {
                    analysis.blocking.push(BlockingSite {
                        what: b.what,
                        code: b.code.clone(),
                        file: node.file.clone(),
                        line: b.line,
                        held,
                        in_fn: node.qualified.clone(),
                    });
                }
            }
        }
    }

    // Transitive acquisitions (with witness chains) and callback sets.
    let mut trans: Vec<BTreeMap<String, Vec<String>>> = vec![BTreeMap::new(); n];
    for (idx, node) in nodes.iter().enumerate() {
        for acq in &node.summary.acquisitions {
            trans[idx]
                .entry(acq.name.clone())
                .or_insert_with(|| vec![frame(node, acq.line)]);
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for idx in 0..n {
            let node = &nodes[idx];
            let mut add: Vec<(String, Vec<String>)> = Vec::new();
            for call in &node.summary.calls {
                for &g in call.candidates.iter().chain(call.closures.iter()) {
                    for (lock, chain) in &trans[g] {
                        if !trans[idx].contains_key(lock) {
                            let mut c = vec![frame(node, call.line)];
                            c.extend(chain.clone());
                            add.push((lock.clone(), c));
                        }
                    }
                }
            }
            for cd in &node.summary.closures {
                for (lock, chain) in trans[cd.node].clone() {
                    if !trans[idx].contains_key(&lock) {
                        let mut c = vec![frame(node, cd.line)];
                        c.extend(chain);
                        add.push((lock, c));
                    }
                }
            }
            for (lock, chain) in add {
                trans[idx].entry(lock).or_insert(chain);
                changed = true;
            }
        }
    }
    for (idx, node) in nodes.iter().enumerate() {
        if !trans[idx].is_empty() {
            analysis
                .transitive_acquires
                .insert(node.qualified.clone(), trans[idx].clone());
        }
        if !callback[idx].is_empty() {
            analysis
                .callback_held
                .insert(node.qualified.clone(), callback[idx].clone());
        }
    }

    // Blocking reachability, held sets ignored: which primitives can a
    // function hit on its own thread? Seeded from each body's blocking
    // ops (primitive-layer files excluded — their callers already get a
    // `condvar wait` event at the call site), then propagated up the
    // call graph like `trans` above. Closures passed to a `spawn` call
    // block the spawned thread, not the caller, so detached sites do
    // not contribute; a condvar wait counts even though it waives its
    // guard — the thread still parks.
    type ReachKey = (PathBuf, usize, String);
    let mut breach: Vec<BTreeMap<ReachKey, (&'static str, Vec<String>)>> = vec![BTreeMap::new(); n];
    for (idx, node) in nodes.iter().enumerate() {
        let primitive = {
            let p = node.file.to_string_lossy().replace('\\', "/");
            primitive_files.iter().any(|s| p.ends_with(s.as_str()))
        };
        if primitive {
            continue;
        }
        for b in &node.summary.blocking {
            breach[idx]
                .entry((node.file.clone(), b.line, b.code.clone()))
                .or_insert((b.what, Vec::new()));
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for idx in 0..n {
            let node = &nodes[idx];
            let mut add: Vec<(ReachKey, &'static str, Vec<String>)> = Vec::new();
            for call in &node.summary.calls {
                let attached_closures = (!call.detached).then_some(&call.closures);
                let targets = call
                    .candidates
                    .iter()
                    .chain(attached_closures.into_iter().flatten());
                for &g in targets {
                    for (key, (what, chain)) in &breach[g] {
                        if !breach[idx].contains_key(key) {
                            let mut c = vec![frame(node, call.line)];
                            c.extend(chain.clone());
                            add.push((key.clone(), what, c));
                        }
                    }
                }
            }
            for cd in &node.summary.closures {
                for (key, (what, chain)) in breach[cd.node].clone() {
                    if !breach[idx].contains_key(&key) {
                        let mut c = vec![frame(node, cd.line)];
                        c.extend(chain);
                        add.push((key, what, c));
                    }
                }
            }
            for (key, what, chain) in add {
                breach[idx].entry(key).or_insert((what, chain));
                changed = true;
            }
        }
    }
    for (idx, node) in nodes.iter().enumerate() {
        // Closure nodes are not roots: one invoked on the defining
        // thread already propagated its blocking into the enclosing
        // function above, and one that only ever crosses a `spawn`
        // blocks the spawned thread, which is the point of spawning.
        if node.qualified.contains("{closure@") {
            continue;
        }
        for ((file, line, code), (what, chain)) in &breach[idx] {
            analysis.reachable_blocking.push(BlockingReach {
                from_fn: node.qualified.clone(),
                from_file: node.file.clone(),
                what,
                code: code.clone(),
                file: file.clone(),
                line: *line,
                chain: chain.clone(),
            });
        }
    }
    analysis
}

// ---------------------------------------------------------------------
// Syntax helpers.

/// Is `chars[i..]` a call of the `lock(&…)` helper (not `.lock(`, not
/// `try_lock(`)?
fn is_lock_call(chars: &[char], i: usize) -> bool {
    if chars[i..].iter().take(5).collect::<String>() != "lock(" {
        return false;
    }
    if i > 0 && (lexer::is_ident(chars[i - 1]) || chars[i - 1] == '.') {
        return false;
    }
    chars.get(i + 5) == Some(&'&')
}

/// Parse the lock name out of `lock(&path)`; returns (name, end).
fn lock_name(chars: &[char], i: usize) -> (Option<String>, usize) {
    let mut j = i + 6;
    let mut path = String::new();
    while j < chars.len() && (lexer::is_ident(chars[j]) || chars[j] == '.' || chars[j] == ' ') {
        path.push(chars[j]);
        j += 1;
    }
    if chars.get(j) != Some(&')') {
        return (None, j);
    }
    let name = path
        .trim()
        .rsplit('.')
        .next()
        .map(str::to_string)
        .filter(|s| !s.is_empty());
    (name, j + 1)
}

/// The callee path text ending just before the `(` at `open`:
/// identifier chars, `.`, and `::` scanning backwards.
fn callee_text(chars: &[char], open: usize) -> String {
    let mut s = open;
    while s > 0 {
        let c = chars[s - 1];
        if lexer::is_ident(c) || c == '.' || c == ':' {
            s -= 1;
        } else {
            break;
        }
    }
    chars[s..open]
        .iter()
        .collect::<String>()
        .trim_matches(':')
        .to_string()
}

/// Top-level arguments of the call whose parens span `(open, close)`:
/// (text, absolute char offset of the argument start).
fn call_args(chars: &[char], open: usize, close: usize) -> Vec<(String, usize)> {
    if close <= open + 1 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let (mut par, mut start) = (0isize, open + 1);
    for k in open + 1..close {
        match chars[k] {
            '(' | '[' | '{' => par += 1,
            ')' | ']' | '}' => par -= 1,
            ',' if par == 0 => {
                let text: String = chars[start..k].iter().collect();
                out.push((
                    text.trim().to_string(),
                    start + leading_ws(&chars[start..k]),
                ));
                start = k + 1;
            }
            _ => {}
        }
    }
    let text: String = chars[start..close].iter().collect();
    if !text.trim().is_empty() {
        out.push((
            text.trim().to_string(),
            start + leading_ws(&chars[start..close]),
        ));
    }
    out
}

fn leading_ws(chars: &[char]) -> usize {
    chars.iter().take_while(|c| c.is_whitespace()).count()
}

/// Top-level closure literals within `span`, as
/// `(start, body_start, end)` absolute offsets — `start` covers the
/// whole `move |params| body`, `body_start` points just past the
/// parameter list (the walkable body). A `|` opens a closure when the
/// previous non-space char is `(`, `,`, `=`, `{`, `;`, or the previous
/// word is `move`/`return` — which excludes the boolean-or operator.
fn find_closures(chars: &[char], span: (usize, usize)) -> Vec<(usize, usize, usize)> {
    let mut out: Vec<(usize, usize, usize)> = Vec::new();
    let mut i = span.0;
    while i < span.1 {
        // Skip spans already claimed by an earlier (outer) closure so
        // only top-level closures of this body are returned; nested
        // ones belong to the closure's own walk.
        if let Some(&(_, _, e)) = out.iter().find(|&&(s, _, e)| s <= i && i < e) {
            i = e;
            continue;
        }
        if chars[i] != '|' {
            i += 1;
            continue;
        }
        if chars.get(i + 1) == Some(&'|') && chars.get(i.wrapping_sub(1)) == Some(&'|') {
            i += 1;
            continue;
        }
        let mut p = i;
        while p > span.0 && chars[p - 1].is_whitespace() {
            p -= 1;
        }
        let prev = if p > span.0 { chars[p - 1] } else { '\0' };
        let prev_word_is_move = {
            let mut e = p;
            let mut s = e;
            while s > span.0 && lexer::is_ident(chars[s - 1]) {
                s -= 1;
            }
            let w: String = chars[s..e.min(chars.len())].iter().collect();
            let _ = &mut e;
            w == "move" || w == "return"
        };
        let opens = matches!(prev, '(' | ',' | '=' | '{' | ';') || prev_word_is_move;
        if !opens {
            i += 1;
            continue;
        }
        let start = if prev_word_is_move { p - 4 } else { i };
        // Find the closing `|` of the parameter list.
        let params_end = if chars.get(i + 1) == Some(&'|') {
            i + 1
        } else {
            let mut j = i + 1;
            while j < span.1 && chars[j] != '|' {
                j += 1;
            }
            j
        };
        if params_end >= span.1 {
            i += 1;
            continue;
        }
        // Body: to the end of the expression — a balanced walk stopping
        // at a top-level `,` or a closing bracket below our level.
        let mut j = params_end + 1;
        let (mut par, mut done) = (0isize, j);
        while j < span.1 {
            match chars[j] {
                '(' | '[' | '{' => par += 1,
                ')' | ']' | '}' => {
                    if par == 0 {
                        done = j;
                        break;
                    }
                    par -= 1;
                    if par == 0 && chars[j] == '}' {
                        // A brace-bodied closure ends at its `}` when
                        // the body began with `{`.
                        let mut k = params_end + 1;
                        while k < span.1 && chars[k].is_whitespace() {
                            k += 1;
                        }
                        if k < span.1 && chars[k] == '{' {
                            done = j + 1;
                            break;
                        }
                    }
                }
                ',' | ';' if par == 0 => {
                    done = j;
                    break;
                }
                _ => {}
            }
            j += 1;
            done = j;
        }
        out.push((start, params_end + 1, done.min(span.1)));
        i = done.min(span.1);
    }
    out
}

/// The binding introduced by the statement containing offset `i`, when
/// its prefix is `let [mut] NAME =`, `let (A, …) =`, or `NAME =`.
fn stmt_binding(chars: &[char], body_start: usize, i: usize) -> Option<String> {
    let mut j = i;
    while j > body_start {
        match chars[j - 1] {
            ';' | '{' | '}' => break,
            _ => j -= 1,
        }
    }
    let stmt: String = chars[j..i].iter().collect();
    let stmt = stmt.trim();
    let eq = find_assign_eq(stmt)?;
    let lhs = stmt[..eq].trim();
    if stmt[eq + 1..].trim() != "" && !stmt[eq + 1..].trim().is_empty() {
        // The `=` we found is not the one binding this expression.
        // (Shouldn't happen: `i` points at the expression start.)
    }
    let lhs = lhs.strip_prefix("let").map(str::trim).unwrap_or(lhs);
    let lhs = lhs.strip_prefix("mut ").map(str::trim).unwrap_or(lhs);
    if let Some(inner) = lhs.strip_prefix('(') {
        let first = inner
            .trim_start_matches("mut ")
            .chars()
            .take_while(|&c| lexer::is_ident(c))
            .collect::<String>();
        return (!first.is_empty()).then_some(first);
    }
    (!lhs.is_empty() && lhs.chars().all(lexer::is_ident)).then(|| lhs.to_string())
}

/// The offset of the last top-level assignment `=` in `stmt` (not part
/// of `==`, `<=`, `+=`, `=>`, …).
fn find_assign_eq(stmt: &str) -> Option<usize> {
    let b: Vec<char> = stmt.chars().collect();
    let mut best = None;
    for (k, &c) in b.iter().enumerate() {
        if c != '=' {
            continue;
        }
        let prev = if k > 0 { b[k - 1] } else { '\0' };
        let next = b.get(k + 1).copied().unwrap_or('\0');
        if matches!(
            prev,
            '=' | '!' | '<' | '>' | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^'
        ) {
            continue;
        }
        if next == '=' || next == '>' {
            continue;
        }
        best = Some(byte_offset(stmt, k));
    }
    best
}

fn byte_offset(s: &str, char_idx: usize) -> usize {
    s.char_indices()
        .nth(char_idx)
        .map(|(b, _)| b)
        .unwrap_or(s.len())
}

/// `a = b;` where `b` is a live guard binding: rename it to `a`.
fn apply_rename(chars: &[char], body_start: usize, semi: usize, guards: &mut [Guard]) {
    let mut j = semi;
    while j > body_start {
        match chars[j - 1] {
            ';' | '{' | '}' => break,
            _ => j -= 1,
        }
    }
    let stmt: String = chars[j..semi].iter().collect();
    let stmt = stmt.trim();
    let Some(eq) = find_assign_eq(stmt) else {
        return;
    };
    let lhs = stmt[..eq]
        .trim()
        .strip_prefix("let")
        .map(str::trim)
        .unwrap_or_else(|| stmt[..eq].trim());
    let lhs = lhs.strip_prefix("mut ").map(str::trim).unwrap_or(lhs);
    let rhs = stmt[eq + 1..].trim();
    if lhs.is_empty()
        || rhs.is_empty()
        || !lhs.chars().all(lexer::is_ident)
        || !rhs.chars().all(lexer::is_ident)
    {
        return;
    }
    for g in guards.iter_mut() {
        if g.binding.as_deref() == Some(rhs) {
            g.binding = Some(lhs.to_string());
        }
    }
}

/// Does a blocking pattern match at offset `i`? Returns the label and
/// the matched raw-line text for allowlist matching.
fn blocking_at(
    chars: &[char],
    i: usize,
    scanned: &ScannedFile,
    line: usize,
) -> Option<(&'static str, String)> {
    for (pat, what) in BLOCKING {
        let p: Vec<char> = pat.chars().collect();
        if i + p.len() > chars.len() || chars[i..i + p.len()] != p[..] {
            continue;
        }
        if !pat.starts_with('.') {
            // Identifier-boundary check on the left: `xthread::sleep`
            // must not match, but a `std::` path prefix must
            // (`std::thread::sleep`, `std::fs::write`).
            if i > 0 && lexer::is_ident(chars[i - 1]) {
                continue;
            }
        }
        let code = scanned
            .lines
            .get(line.saturating_sub(1))
            .map(|l| l.code.clone())
            .unwrap_or_default();
        return Some((what, code));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn run(src: &str) -> Analysis {
        let files = vec![(PathBuf::from("x.rs"), scan(src))];
        analyze(&files, &["sync.rs".to_string()])
    }

    fn edge_pairs(a: &Analysis) -> Vec<(String, String)> {
        a.edges
            .iter()
            .map(|e| (e.held.clone(), e.acquired.clone()))
            .collect()
    }

    #[test]
    fn scoped_guard_nesting_yields_edge() {
        let a =
            run("impl S { fn f(&self) { let a = lock(&self.alpha); let b = lock(&self.beta); } }");
        assert_eq!(edge_pairs(&a), vec![("alpha".into(), "beta".into())]);
    }

    #[test]
    fn inner_block_releases_before_next_lock() {
        let a = run("fn f(&self) { let s = { let a = lock(&self.alpha); a.len() }; let b = lock(&self.beta); }");
        assert!(a.edges.is_empty(), "{:?}", a.edges);
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let a = run("fn f(&self) { lock(&self.alpha).x += 1; let b = lock(&self.beta); }");
        assert!(a.edges.is_empty(), "{:?}", a.edges);
    }

    #[test]
    fn temporary_guard_nests_within_its_statement() {
        let a = run("fn f(&self) { lock(&self.alpha).insert(lock(&self.beta).pop()); }");
        assert_eq!(a.edges.len(), 1, "{:?}", a.edges);
    }

    #[test]
    fn cross_function_edge_is_propagated_with_chain() {
        let src = r#"
impl S {
    fn outer(&self) {
        let a = lock(&self.alpha);
        self.inner_helper();
    }
    fn inner_helper(&self) {
        lock(&self.beta).touch();
    }
}
"#;
        let a = run(src);
        let e = a
            .edges
            .iter()
            .find(|e| e.held == "alpha" && e.acquired == "beta")
            .expect("propagated edge");
        assert!(
            e.chain.iter().any(|f| f.contains("S::outer")),
            "chain names the caller: {:?}",
            e.chain
        );
        assert!(
            e.chain.iter().any(|f| f.contains("S::inner_helper")),
            "chain names the acquirer: {:?}",
            e.chain
        );
    }

    #[test]
    fn callback_edge_is_rediscovered() {
        // The `with_conn` shape: a closure defined in one function is
        // invoked by another while it holds a lock.
        let src = r#"
impl Cache {
    fn with_conn(&self, event: impl FnMut(u32)) {
        let guard = lock(&self.conn);
        event(1);
    }
}
impl Client {
    fn go(&self) {
        self.cache.with_conn(|ev| {
            lock(&self.stats).count += ev;
        });
    }
}
struct Client { cache: Cache }
struct Cache { conn: u32 }
"#;
        let a = run(src);
        let e = a
            .edges
            .iter()
            .find(|e| e.held == "conn" && e.acquired == "stats")
            .unwrap_or_else(|| panic!("conn->stats rediscovered: {:?}", a.edges));
        assert!(
            e.chain.iter().any(|f| f.contains("with_conn")),
            "chain passes through with_conn: {:?}",
            e.chain
        );
    }

    #[test]
    fn guard_move_prevents_false_self_edge() {
        // The hybrid-store shape: append moves its guard into
        // spill_trip, which drops it before I/O and re-locks.
        let src = r#"
impl Store {
    fn append(&self) {
        let mut g = lock(&self.inner);
        let (g2, res) = self.spill_trip(g);
        g = g2;
        drop(g);
    }
    fn spill_trip<'a>(&'a self, mut g: MutexGuard<'a, Inner>) -> (MutexGuard<'a, Inner>, u32) {
        drop(g);
        self.write_local();
        let g = lock(&self.inner);
        (g, 0)
    }
    fn write_local(&self) {
        self.file.write_all(b"x");
    }
}
"#;
        let a = run(src);
        assert!(
            !edge_pairs(&a).contains(&("inner".into(), "inner".into())),
            "no false self-edge: {:?}",
            a.edges
        );
        assert!(
            a.blocking.is_empty(),
            "dropped guard before I/O: {:?}",
            a.blocking
        );
    }

    #[test]
    fn blocking_under_lock_is_found_through_calls() {
        let src = r#"
impl S {
    fn top(&self) {
        let g = lock(&self.inner);
        self.deep();
    }
    fn deep(&self) {
        self.file.write_all(b"x");
    }
}
"#;
        let a = run(src);
        assert_eq!(a.blocking.len(), 1, "{:?}", a.blocking);
        let b = &a.blocking[0];
        assert_eq!(b.what, "stream write");
        assert!(b.held.iter().any(|(l, _)| l == "inner"));
        assert!(b.held[0].1.iter().any(|f| f.contains("S::top")));
    }

    #[test]
    fn wait_releases_its_guard_but_not_others() {
        let src = r#"
fn one(&self) {
    let mut g = lock(&self.inner);
    g = wait(&self.cv, g);
    g.touch();
}
fn two(&self) {
    let a = lock(&self.alpha);
    let mut g = lock(&self.inner);
    g = wait(&self.cv, g);
}
"#;
        let a = run(src);
        // `one`: waiting with only its own guard — clean.
        // `two`: waiting while also holding `alpha` — a finding.
        let waits: Vec<_> = a
            .blocking
            .iter()
            .filter(|b| b.what == "condvar wait")
            .collect();
        assert_eq!(waits.len(), 1, "{:?}", a.blocking);
        assert!(waits[0].held.iter().any(|(l, _)| l == "alpha"));
    }

    #[test]
    fn transitive_acquires_attribute_cross_function_locks() {
        let src = r#"
impl S {
    fn serve(&self) {
        self.read_ahead();
    }
    fn read_ahead(&self) {
        let s = lock(&self.store);
    }
}
"#;
        let a = run(src);
        let serve = a.transitive_acquires.get("S::serve").expect("serve entry");
        let chain = serve.get("store").expect("store attributed to serve");
        assert!(
            chain.iter().any(|f| f.contains("read_ahead")),
            "witness chain passes through read_ahead: {chain:?}"
        );
    }

    #[test]
    fn std_method_names_do_not_link_via_untyped_receivers() {
        // `pieces.push(…)` under a lock must not link to our `push`.
        let src = r#"
struct Part { extents: Vec<u32> }
impl Queue {
    fn push(&self, v: u32) {
        let j = lock(&self.jobs);
    }
}
impl S {
    fn collect(&self, part: &Part) {
        let g = lock(&self.inner);
        let mut pieces = Vec::new();
        pieces.push(1);
        part.extents.push(2);
    }
}
"#;
        let a = run(src);
        assert!(
            !edge_pairs(&a).contains(&("inner".into(), "jobs".into())),
            "Vec::push must not resolve to Queue::push: {:?}",
            a.edges
        );
    }

    #[test]
    fn typed_receiver_links_distinctive_methods() {
        let src = r#"
struct S { q: Queue }
impl Queue {
    fn enqueue_job(&self, v: u32) {
        let j = lock(&self.jobs);
    }
}
impl S {
    fn submit(&self) {
        let g = lock(&self.inner);
        self.q.enqueue_job(1);
    }
}
"#;
        let a = run(src);
        assert!(
            edge_pairs(&a).contains(&("inner".into(), "jobs".into())),
            "field-typed receiver resolves: {:?}",
            a.edges
        );
    }

    #[test]
    fn spawned_closures_do_not_inherit_the_spawn_site_locks() {
        let src = r#"
fn go(&self) {
    let g = lock(&self.inner);
    thread::spawn(move || {
        self.file.write_all(b"x");
    });
}
"#;
        let a = run(src);
        assert!(
            a.blocking.is_empty(),
            "a spawned thread does not hold the spawner's locks: {:?}",
            a.blocking
        );
    }

    #[test]
    fn test_functions_are_excluded() {
        let src = "#[cfg(test)]\nmod t {\n    fn f(&self) { let a = lock(&self.alpha); let b = lock(&self.beta); }\n}\n";
        let a = run(src);
        assert!(a.edges.is_empty(), "{:?}", a.edges);
    }
}
