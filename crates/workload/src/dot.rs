//! Graphviz DOT ingestion — the import dual of
//! [`stochdag_dag::dot_string`].
//!
//! Parses the directed-graph subset of the DOT language that covers
//! both this workspace's own exports and typical workflow-trace dumps:
//!
//! - `strict`? `digraph` name? `{ … }` (undirected `graph`s are
//!   rejected with a structured error),
//! - node statements `id [attr, …];`, edge chains `a -> b -> c;`,
//!   graph attributes `rankdir=TB;`, and `node`/`edge`/`graph` default
//!   attribute statements (accepted and ignored),
//! - `//`, `#`, and `/* … */` comments, quoted identifiers with
//!   escapes, and optional semicolons.
//!
//! Task weights come from the full-precision `weight=` attribute that
//! [`stochdag_dag::dot_string`] emits, falling back to a `label`'s
//! second line (the human-readable `{:.4}` rendering), and default to
//! `1.0` — so round-tripping an export reproduces the exact weight
//! bits, which in turn makes the WL structural hash (and therefore
//! every cache key) identical. Node *names* come from the label's
//! first line when present, else the DOT id; names are display-only
//! and deliberately excluded from the structural hash.
//!
//! Every error is a located [`WorkloadError::Parse`] naming the line,
//! column, and — where it concerns one — the offending node or edge
//! id, or a [`WorkloadError::Graph`] when the text parses but does not
//! describe a DAG (cycles).

use crate::error::WorkloadError;
use crate::trace::{IngestedTrace, TraceFormat};
use std::collections::HashMap;
use stochdag_dag::{validate_acyclic, Dag};

/// Parse DOT text into a validated DAG plus provenance metadata.
pub fn parse_dot(src: &str) -> Result<IngestedTrace, WorkloadError> {
    Parser::new(src).parse()
}

/// Read and parse a DOT file.
pub fn load_dot(path: &std::path::Path) -> Result<IngestedTrace, WorkloadError> {
    let src = std::fs::read_to_string(path).map_err(|e| WorkloadError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    let mut trace = parse_dot(&src)?;
    trace.source = Some(path.display().to_string());
    Ok(trace)
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    /// Identifier, numeral, or quoted string (unescaped except `\n`,
    /// which is kept verbatim as backslash+n — it is a Graphviz label
    /// line break, not source whitespace).
    Id(String),
    LBrace,
    RBrace,
    LBrack,
    RBrack,
    Semi,
    Comma,
    Eq,
    Arrow,
    Eof,
}

#[derive(Clone, Debug)]
struct Token {
    tok: Tok,
    line: usize,
    col: usize,
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.bytes.get(self.pos).copied()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn skip_trivia(&mut self) -> Result<(), WorkloadError> {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n') => {
                    self.bump();
                }
                Some(b'#') => {
                    while self.peek().is_some_and(|b| b != b'\n') {
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while self.peek().is_some_and(|b| b != b'\n') {
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let (line, col) = (self.line, self.col);
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                            None => {
                                return Err(WorkloadError::parse(
                                    line,
                                    col,
                                    "unterminated /* comment",
                                ))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next(&mut self) -> Result<Token, WorkloadError> {
        self.skip_trivia()?;
        let (line, col) = (self.line, self.col);
        let at = |tok| Token { tok, line, col };
        let Some(b) = self.peek() else {
            return Ok(at(Tok::Eof));
        };
        match b {
            b'{' => {
                self.bump();
                Ok(at(Tok::LBrace))
            }
            b'}' => {
                self.bump();
                Ok(at(Tok::RBrace))
            }
            b'[' => {
                self.bump();
                Ok(at(Tok::LBrack))
            }
            b']' => {
                self.bump();
                Ok(at(Tok::RBrack))
            }
            b';' => {
                self.bump();
                Ok(at(Tok::Semi))
            }
            b',' => {
                self.bump();
                Ok(at(Tok::Comma))
            }
            b'=' => {
                self.bump();
                Ok(at(Tok::Eq))
            }
            b'-' => {
                self.bump();
                match self.peek() {
                    Some(b'>') => {
                        self.bump();
                        Ok(at(Tok::Arrow))
                    }
                    Some(b'-') => Err(WorkloadError::parse(
                        line,
                        col,
                        "undirected edge `--` (only directed graphs are supported)",
                    )),
                    Some(c) if c.is_ascii_digit() || c == b'.' => {
                        let mut s = String::from("-");
                        s.push_str(&self.ident_tail());
                        Ok(at(Tok::Id(s)))
                    }
                    _ => Err(WorkloadError::parse(line, col, "stray `-`")),
                }
            }
            b'"' => {
                self.bump();
                let mut s = String::new();
                loop {
                    match self.bump() {
                        Some(b'"') => break,
                        Some(b'\\') => match self.bump() {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push_str("\\\\"),
                            Some(c) => {
                                // Keep Graphviz escapes (\n, \l, …)
                                // verbatim; they are label markup.
                                s.push('\\');
                                s.push(c as char);
                            }
                            None => {
                                return Err(WorkloadError::parse(
                                    line,
                                    col,
                                    "unterminated quoted string",
                                ))
                            }
                        },
                        Some(c) => s.push(c as char),
                        None => {
                            return Err(WorkloadError::parse(
                                line,
                                col,
                                "unterminated quoted string",
                            ))
                        }
                    }
                }
                Ok(at(Tok::Id(s)))
            }
            c if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' => {
                Ok(at(Tok::Id(self.ident_tail())))
            }
            c => Err(WorkloadError::parse(
                line,
                col,
                format!("unexpected character {:?}", c as char),
            )),
        }
    }

    fn ident_tail(&mut self) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' {
                s.push(c as char);
                self.bump();
            } else {
                break;
            }
        }
        s
    }
}

/// One declared-or-mentioned DOT node, in first-mention order.
struct NodeRec {
    id: String,
    label: Option<String>,
    weight: Option<f64>,
    line: usize,
    col: usize,
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    lookahead: Option<Token>,
    nodes: Vec<NodeRec>,
    index: HashMap<String, usize>,
    edges: Vec<(usize, usize)>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        Parser {
            lexer: Lexer::new(src),
            lookahead: None,
            nodes: Vec::new(),
            index: HashMap::new(),
            edges: Vec::new(),
        }
    }

    fn peek(&mut self) -> Result<&Token, WorkloadError> {
        if self.lookahead.is_none() {
            self.lookahead = Some(self.lexer.next()?);
        }
        Ok(self.lookahead.as_ref().unwrap())
    }

    fn advance(&mut self) -> Result<Token, WorkloadError> {
        self.peek()?;
        Ok(self.lookahead.take().unwrap())
    }

    fn expect_id(&mut self, what: &str) -> Result<(String, usize, usize), WorkloadError> {
        let t = self.advance()?;
        match t.tok {
            Tok::Id(s) => Ok((s, t.line, t.col)),
            other => Err(WorkloadError::parse(
                t.line,
                t.col,
                format!("expected {what}, found {other:?}"),
            )),
        }
    }

    fn node_index(&mut self, id: &str, line: usize, col: usize) -> usize {
        if let Some(&i) = self.index.get(id) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(NodeRec {
            id: id.to_string(),
            label: None,
            weight: None,
            line,
            col,
        });
        self.index.insert(id.to_string(), i);
        i
    }

    fn parse(mut self) -> Result<IngestedTrace, WorkloadError> {
        // strict? digraph name? { … }
        let mut t = self.advance()?;
        if matches!(&t.tok, Tok::Id(s) if s.eq_ignore_ascii_case("strict")) {
            t = self.advance()?;
        }
        match &t.tok {
            Tok::Id(s) if s.eq_ignore_ascii_case("digraph") => {}
            Tok::Id(s) if s.eq_ignore_ascii_case("graph") => {
                return Err(WorkloadError::parse(
                    t.line,
                    t.col,
                    "undirected `graph` is not supported; expected `digraph`",
                ))
            }
            other => {
                return Err(WorkloadError::parse(
                    t.line,
                    t.col,
                    format!("expected `digraph`, found {other:?}"),
                ))
            }
        }
        let name = match &self.peek()?.tok {
            Tok::Id(_) => {
                let (s, _, _) = self.expect_id("graph name")?;
                s
            }
            _ => "trace".to_string(),
        };
        let open = self.advance()?;
        if open.tok != Tok::LBrace {
            return Err(WorkloadError::parse(
                open.line,
                open.col,
                "expected `{` after the graph name",
            ));
        }
        loop {
            let t = self.advance()?;
            match t.tok {
                Tok::RBrace => break,
                Tok::Semi => continue,
                Tok::Eof => {
                    return Err(WorkloadError::parse(
                        t.line,
                        t.col,
                        "unexpected end of input: missing `}`",
                    ))
                }
                Tok::Id(id) => self.statement(id, t.line, t.col)?,
                other => {
                    return Err(WorkloadError::parse(
                        t.line,
                        t.col,
                        format!("expected a node, edge, or attribute statement, found {other:?}"),
                    ))
                }
            }
        }
        let end = self.advance()?;
        if end.tok != Tok::Eof {
            return Err(WorkloadError::parse(
                end.line,
                end.col,
                "trailing input after the closing `}`",
            ));
        }
        self.build(name)
    }

    /// One statement whose leading identifier has been consumed.
    fn statement(&mut self, id: String, line: usize, col: usize) -> Result<(), WorkloadError> {
        if id.eq_ignore_ascii_case("subgraph") {
            return Err(WorkloadError::parse(
                line,
                col,
                "subgraphs are not supported",
            ));
        }
        // Default-attribute statements `node [...]` / `edge [...]` /
        // `graph [...]`: accepted and ignored.
        let is_default_kw = ["node", "edge", "graph"]
            .iter()
            .any(|k| id.eq_ignore_ascii_case(k));
        if is_default_kw && self.peek()?.tok == Tok::LBrack {
            self.attr_lists()?;
            return Ok(());
        }
        match self.peek()?.tok {
            // `key = value` graph attribute (rankdir, ranksep, …).
            Tok::Eq => {
                self.advance()?;
                self.expect_id("an attribute value")?;
            }
            // Edge chain `a -> b -> c [attrs]`.
            Tok::Arrow => {
                let mut prev = self.node_index(&id, line, col);
                while self.peek()?.tok == Tok::Arrow {
                    self.advance()?;
                    let (to, tl, tc) = self.expect_id("a node id after `->`")?;
                    if to.eq_ignore_ascii_case("subgraph") || self.peek()?.tok == Tok::LBrace {
                        return Err(WorkloadError::parse(tl, tc, "subgraphs are not supported"));
                    }
                    let next = self.node_index(&to, tl, tc);
                    self.edges.push((prev, next));
                    prev = next;
                }
                self.attr_lists()?; // edge attributes: ignored
            }
            // Node statement with or without attributes.
            _ => {
                let idx = self.node_index(&id, line, col);
                let attrs = self.attr_lists()?;
                for (key, value, al, ac) in attrs {
                    if key.eq_ignore_ascii_case("label") {
                        self.nodes[idx].label = Some(value);
                    } else if key.eq_ignore_ascii_case("weight") {
                        let w: f64 = value.parse().map_err(|_| {
                            WorkloadError::parse_at(
                                al,
                                ac,
                                format!("node {:?}", self.nodes[idx].id),
                                format!("weight {value:?} is not a number"),
                            )
                        })?;
                        if let Some(old) = self.nodes[idx].weight {
                            if old != w {
                                return Err(WorkloadError::parse_at(
                                    al,
                                    ac,
                                    format!("node {:?}", self.nodes[idx].id),
                                    format!("conflicting weights {old} and {w}"),
                                ));
                            }
                        }
                        self.nodes[idx].weight = Some(w);
                    }
                }
            }
        }
        Ok(())
    }

    /// Zero or more `[ key=value, … ]` lists; returns the (key, value,
    /// line, col) pairs in order.
    #[allow(clippy::type_complexity)]
    fn attr_lists(&mut self) -> Result<Vec<(String, String, usize, usize)>, WorkloadError> {
        let mut out = Vec::new();
        while self.peek()?.tok == Tok::LBrack {
            self.advance()?;
            loop {
                let t = self.advance()?;
                match t.tok {
                    Tok::RBrack => break,
                    Tok::Comma | Tok::Semi => continue,
                    Tok::Id(key) => {
                        let eq = self.advance()?;
                        if eq.tok != Tok::Eq {
                            return Err(WorkloadError::parse(
                                eq.line,
                                eq.col,
                                format!("expected `=` after attribute {key:?}"),
                            ));
                        }
                        let (value, vl, vc) = self.expect_id("an attribute value")?;
                        out.push((key, value, vl, vc));
                    }
                    other => {
                        return Err(WorkloadError::parse(
                            t.line,
                            t.col,
                            format!("expected an attribute or `]`, found {other:?}"),
                        ))
                    }
                }
            }
        }
        Ok(out)
    }

    fn build(self, name: String) -> Result<IngestedTrace, WorkloadError> {
        let mut dag = Dag::new();
        for rec in &self.nodes {
            let weight = match rec.weight {
                Some(w) => w,
                None => rec.label.as_deref().and_then(label_weight).unwrap_or(1.0),
            };
            if !weight.is_finite() || weight < 0.0 {
                return Err(WorkloadError::parse_at(
                    rec.line,
                    rec.col,
                    format!("node {:?}", rec.id),
                    format!("weight {weight} must be finite and non-negative"),
                ));
            }
            let display = rec
                .label
                .as_deref()
                .map(label_name)
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| rec.id.clone());
            dag.add_named_node(weight, Some(display));
        }
        let ids: Vec<_> = dag.nodes().collect();
        for &(a, b) in &self.edges {
            dag.add_edge_dedup(ids[a], ids[b]);
        }
        validate_acyclic(&dag)?;
        Ok(IngestedTrace {
            dag,
            name,
            format: TraceFormat::Dot,
            source: None,
        })
    }
}

/// First line of a Graphviz label (`\n` markup splits lines).
fn label_name(label: &str) -> String {
    label.split("\\n").next().unwrap_or(label).to_string()
}

/// Weight fallback: a label's *last* line, if it parses as a number
/// (the `{:.4}` rendering [`stochdag_dag::dot_string`] emits).
fn label_weight(label: &str) -> Option<f64> {
    let mut parts = label.split("\\n");
    let _first = parts.next()?;
    parts.last()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochdag_dag::dot_string;

    #[test]
    fn parses_a_minimal_digraph() {
        let t = parse_dot("digraph g { a [weight=2.5]; b; a -> b; }").unwrap();
        assert_eq!(t.name, "g");
        assert_eq!(t.dag.node_count(), 2);
        assert_eq!(t.dag.edge_count(), 1);
        let ids: Vec<_> = t.dag.nodes().collect();
        assert_eq!(t.dag.weight(ids[0]), 2.5);
        assert_eq!(t.dag.weight(ids[1]), 1.0);
        assert_eq!(t.dag.display_name(ids[0]), "a");
    }

    #[test]
    fn round_trips_an_export() {
        let mut g = Dag::new();
        let a = g.add_named_node(0.1 + 0.2, Some("POTRF_0"));
        let b = g.add_named_node(2.0, Some("TRSM_1_0"));
        let c = g.add_named_node(1.0, Some("SYRK_1"));
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, c);
        let dot = dot_string(&g, "chol", true);
        let t = parse_dot(&dot).unwrap();
        assert_eq!(
            stochdag_dag::structural_hash(&t.dag),
            stochdag_dag::structural_hash(&g)
        );
        let (orig, back): (Vec<_>, Vec<_>) = (g.nodes().collect(), t.dag.nodes().collect());
        for (o, r) in orig.iter().zip(&back) {
            assert_eq!(g.weight(*o).to_bits(), t.dag.weight(*r).to_bits());
            assert_eq!(g.display_name(*o), t.dag.display_name(*r));
        }
    }

    #[test]
    fn label_second_line_is_the_weight_fallback() {
        let t = parse_dot("digraph g { n0 [label=\"task\\n1.2500\"]; }").unwrap();
        let v = t.dag.nodes().next().unwrap();
        assert_eq!(t.dag.weight(v), 1.25);
        assert_eq!(t.dag.display_name(v), "task");
    }

    #[test]
    fn weight_attribute_beats_the_label() {
        let t =
            parse_dot("digraph g { n0 [label=\"task\\n1.2500\", weight=1.25000001]; }").unwrap();
        let v = t.dag.nodes().next().unwrap();
        assert_eq!(t.dag.weight(v), 1.25000001);
    }

    #[test]
    fn edge_chains_and_auto_declared_nodes() {
        let t = parse_dot("digraph { a -> b -> c; b -> d [style=dotted]; }").unwrap();
        assert_eq!(t.name, "trace");
        assert_eq!(t.dag.node_count(), 4);
        assert_eq!(t.dag.edge_count(), 3);
    }

    #[test]
    fn comments_defaults_and_graph_attrs_are_ignored() {
        let src = "// header\ndigraph g {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n  \
                   /* block */ # trailing\n  a -> b;\n}\n";
        let t = parse_dot(src).unwrap();
        assert_eq!(t.dag.node_count(), 2);
    }

    #[test]
    fn cycle_is_a_graph_error() {
        let err = parse_dot("digraph g { a -> b; b -> a; }").unwrap_err();
        assert!(matches!(err, WorkloadError::Graph(_)), "{err}");
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn bad_weight_names_the_node_and_location() {
        let err = parse_dot("digraph g {\n  n3 [weight=heavy];\n}").unwrap_err();
        match &err {
            WorkloadError::Parse {
                line,
                column,
                entity,
                ..
            } => {
                assert_eq!(*line, 2);
                assert!(*column > 1);
                assert_eq!(entity.as_deref(), Some("node \"n3\""));
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("n3"), "{err}");
    }

    #[test]
    fn negative_weight_is_rejected_with_location() {
        let err = parse_dot("digraph g { n0 [weight=-1.5]; }").unwrap_err();
        assert!(err.to_string().contains("non-negative"), "{err}");
        assert!(err.to_string().contains("n0"), "{err}");
    }

    #[test]
    fn undirected_graphs_are_rejected() {
        let err = parse_dot("graph g { a -- b; }").unwrap_err();
        assert!(err.to_string().contains("digraph"), "{err}");
        let err = parse_dot("digraph g { a -- b; }").unwrap_err();
        assert!(err.to_string().contains("--"), "{err}");
    }

    #[test]
    fn missing_brace_is_located() {
        let err = parse_dot("digraph g {\n a -> b;\n").unwrap_err();
        assert!(err.to_string().contains("missing `}`"), "{err}");
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn conflicting_weights_are_rejected() {
        let err = parse_dot("digraph g { a [weight=1]; a [weight=2]; }").unwrap_err();
        assert!(err.to_string().contains("conflicting"), "{err}");
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let t = parse_dot("digraph g { a -> b; a -> b; }").unwrap();
        assert_eq!(t.dag.edge_count(), 1);
    }

    #[test]
    fn quoted_ids_with_spaces() {
        let t = parse_dot("digraph \"my trace\" { \"stage 1\" -> \"stage 2\"; }").unwrap();
        assert_eq!(t.name, "my trace");
        let v = t.dag.nodes().next().unwrap();
        assert_eq!(t.dag.display_name(v), "stage 1");
    }
}
