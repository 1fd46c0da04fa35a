//! mcscript — the custom-action language for workflow Script blocks.
//!
//! The paper lets users add "custom workflow actions written in JavaScript or
//! Python, for example to create complex string inputs for services from
//! user data". mcscript is this reproduction's sandboxed equivalent: a small
//! expression language with `let` bindings and output assignments,
//! implemented as a classic lexer → recursive-descent parser → tree-walking
//! evaluator over `mathcloud_json::Value`. Between parser and evaluator, a
//! compile walk resolves every read against the inputs and earlier bindings
//! and marks the last read of each variable, which moves its value instead
//! of copying it. A `Script` block is compiled once, when its workflow is
//! validated; [`run_script`] compiles and runs in one call.
//!
//! # Language
//!
//! ```text
//! program   := statement*
//! statement := "let" IDENT "=" expr ";"        local binding
//!            | IDENT "=" expr ";"              output assignment
//! expr      := or
//! or        := and ("||" and)*
//! and       := equality ("&&" equality)*
//! equality  := compare (("==" | "!=") compare)?
//! compare   := additive (("<" | "<=" | ">" | ">=") additive)?
//! additive  := multiplicative (("+" | "-") multiplicative)*
//! multiplicative := unary (("*" | "/" | "%") unary)*
//! unary     := ("-" | "!") unary | postfix
//! postfix   := primary ("(" args ")" | "[" expr "]" | "." IDENT)*
//! primary   := NUMBER | STRING | "true" | "false" | "null" | IDENT
//!            | "(" expr ")" | "[" args "]" | "{" STRING ":" expr, ... "}"
//! ```
//!
//! `+` concatenates when either operand is a string; integer arithmetic
//! stays exact; `/` always yields a float. Builtins: `if(c, a, b)`, `len`,
//! `min`, `max`, `abs`, `floor`, `ceil`, `round`, `str`, `num`, `split`,
//! `join`, `contains`, `keys`, `range`, `parse_json`, `to_json`.
//!
//! # Examples
//!
//! ```
//! use mathcloud_json::json;
//! use mathcloud_workflow::run_script;
//!
//! let inputs = [("rows".to_string(), json!(["1 0", "0 1"]))].into_iter().collect();
//! let outputs = run_script(
//!     "let sep = \"; \";\n matrix = join(rows, sep); count = len(rows);",
//!     inputs,
//! ).unwrap();
//! assert_eq!(outputs.get("matrix").unwrap().as_str(), Some("1 0; 0 1"));
//! assert_eq!(outputs.get("count").unwrap().as_i64(), Some(2));
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use mathcloud_json::value::Object;
use mathcloud_json::{Number, Value};

/// An mcscript failure with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    /// What went wrong.
    pub message: String,
    /// 1-based source line.
    pub line: usize,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "script error at line {}: {}", self.line, self.message)
    }
}

impl Error for ScriptError {}

fn err<T>(message: impl Into<String>, line: usize) -> Result<T, ScriptError> {
    Err(ScriptError {
        message: message.into(),
        line,
    })
}

// ---------------------------------------------------------------- lexer --

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(f64, bool), // value, is_int
    Str(String),
    Punct(&'static str),
    Eof,
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: usize,
}

/// Every operator and delimiter, each two-character one before its prefix.
const PUNCT: [&str; 25] = [
    "==", "!=", "<=", ">=", "&&", "||", "+", "-", "*", "/", "%", "=", "<", ">", "!", "(", ")", "[",
    "]", "{", "}", ",", ";", ":", ".",
];

fn lex(src: &str) -> Result<Vec<Token>, ScriptError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '#' => {
                // Comment to end of line.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Ident(src[start..i].to_string()),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut is_int = true;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && i + 1 < bytes.len()
                    && (bytes[i + 1] as char).is_ascii_digit()
                {
                    is_int = false;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &src[start..i];
                let v: f64 = text.parse().map_err(|_| ScriptError {
                    message: format!("bad number {text:?}"),
                    line,
                })?;
                out.push(Token {
                    tok: Tok::Num(v, is_int),
                    line,
                });
            }
            '"' => {
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return err("unterminated string", line);
                    }
                    match bytes[i] {
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\\' => {
                            i += 1;
                            let esc = *bytes.get(i).ok_or(ScriptError {
                                message: "unterminated escape".into(),
                                line,
                            })?;
                            s.push(match esc {
                                b'n' => '\n',
                                b't' => '\t',
                                b'"' => '"',
                                b'\\' => '\\',
                                other => {
                                    return err(format!("bad escape \\{}", other as char), line)
                                }
                            });
                            i += 1;
                        }
                        b'\n' => return err("newline in string literal", line),
                        _ => {
                            // Copy the full UTF-8 character.
                            let ch_len = utf8_char_len(bytes[i]);
                            s.push_str(&src[i..i + ch_len]);
                            i += ch_len;
                        }
                    }
                }
                out.push(Token {
                    tok: Tok::Str(s),
                    line,
                });
            }
            _ => {
                // Compared as bytes, so a multi-byte character at `i` cannot
                // panic on a non-boundary index; two-character operators first.
                let Some(p) = PUNCT
                    .into_iter()
                    .find(|p| bytes[i..].starts_with(p.as_bytes()))
                else {
                    return err(format!("unexpected character {c:?}"), line);
                };
                out.push(Token {
                    tok: Tok::Punct(p),
                    line,
                });
                i += p.len();
            }
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        line,
    });
    Ok(out)
}

fn utf8_char_len(first: u8) -> usize {
    if first < 0x80 {
        1
    } else if first >= 0xF0 {
        4
    } else if first >= 0xE0 {
        3
    } else {
        2
    }
}

// --------------------------------------------------------------- parser --

#[derive(Debug, Clone)]
enum Expr {
    Lit(Value),
    /// A read of a name; `true` when it is the last read of a variable's
    /// binding, which moves the value out instead of copying it.
    Var(String, usize, bool),
    Unary(&'static str, Box<Expr>, usize),
    Binary(&'static str, Box<Expr>, Box<Expr>, usize),
    Call(String, Vec<Expr>, usize),
    Index(Box<Expr>, Box<Expr>, usize),
    Member(Box<Expr>, String, usize),
    Array(Vec<Expr>),
    ObjectLit(Vec<(String, Expr)>),
}

#[derive(Debug, Clone)]
enum Stmt {
    Let(String, Expr),
    Assign(String, Expr),
}

/// The binary operators by precedence, loosest first, each level with
/// whether it chains (`a + b + c`) or takes one operator at most (`a < b`).
const LEVELS: [(&[&str], bool); 6] = [
    (&["||"], true),
    (&["&&"], true),
    (&["==", "!="], false),
    (&["<=", ">=", "<", ">"], false),
    (&["+", "-"], true),
    (&["*", "/", "%"], true),
];

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ScriptError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            err(format!("expected {p:?}"), self.line())
        }
    }

    fn parse_program(&mut self) -> Result<Vec<Stmt>, ScriptError> {
        let mut stmts = Vec::new();
        while !matches!(self.peek(), Tok::Eof) {
            stmts.push(self.parse_stmt()?);
        }
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ScriptError> {
        let line = self.line();
        match self.peek().clone() {
            Tok::Ident(name) if name == "let" => {
                self.bump();
                let Tok::Ident(var) = self.bump() else {
                    return err("expected identifier after let", line);
                };
                self.expect_punct("=")?;
                let e = self.parse_expr()?;
                self.expect_punct(";")?;
                Ok(Stmt::Let(var, e))
            }
            Tok::Ident(name) => {
                self.bump();
                self.expect_punct("=")?;
                let e = self.parse_expr()?;
                self.expect_punct(";")?;
                Ok(Stmt::Assign(name, e))
            }
            other => err(format!("expected statement, found {other:?}"), line),
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, ScriptError> {
        self.parse_binary(0)
    }

    /// One level of [`LEVELS`] over the next one down, and the unary
    /// operators below the last.
    fn parse_binary(&mut self, level: usize) -> Result<Expr, ScriptError> {
        let Some(&(ops, chains)) = LEVELS.get(level) else {
            return self.parse_unary();
        };
        let mut lhs = self.parse_binary(level + 1)?;
        while let Some(&op) =
            (ops.iter()).find(|&&op| matches!(self.peek(), Tok::Punct(p) if *p == op))
        {
            let line = self.line();
            self.bump();
            let rhs = self.parse_binary(level + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), line);
            if !chains {
                break;
            }
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ScriptError> {
        let line = self.line();
        for op in ["-", "!"] {
            if self.eat_punct(op) {
                return Ok(Expr::Unary(op, Box::new(self.parse_unary()?), line));
            }
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr, ScriptError> {
        let mut e = self.parse_primary()?;
        loop {
            let line = self.line();
            if self.eat_punct("(") {
                // Calls are only valid on bare identifiers (builtins).
                let Expr::Var(name, ..) = e else {
                    return err("only builtin functions can be called", line);
                };
                let mut args = Vec::new();
                if !self.eat_punct(")") {
                    loop {
                        args.push(self.parse_expr()?);
                        if self.eat_punct(")") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                e = Expr::Call(name, args, line);
            } else if self.eat_punct("[") {
                let idx = self.parse_expr()?;
                self.expect_punct("]")?;
                e = Expr::Index(Box::new(e), Box::new(idx), line);
            } else if self.eat_punct(".") {
                let Tok::Ident(field) = self.bump() else {
                    return err("expected field name after '.'", line);
                };
                e = Expr::Member(Box::new(e), field, line);
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn parse_primary(&mut self) -> Result<Expr, ScriptError> {
        let line = self.line();
        match self.bump() {
            Tok::Num(v, true) => Ok(Expr::Lit(Value::Number(Number::Int(v as i64)))),
            Tok::Num(v, false) => Ok(Expr::Lit(Value::Number(Number::Float(v)))),
            Tok::Str(s) => Ok(Expr::Lit(Value::String(s))),
            Tok::Ident(name) => match name.as_str() {
                "true" => Ok(Expr::Lit(Value::Bool(true))),
                "false" => Ok(Expr::Lit(Value::Bool(false))),
                "null" => Ok(Expr::Lit(Value::Null)),
                _ => Ok(Expr::Var(name, line, false)),
            },
            Tok::Punct("(") => {
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Punct("[") => {
                let mut items = Vec::new();
                if !self.eat_punct("]") {
                    loop {
                        items.push(self.parse_expr()?);
                        if self.eat_punct("]") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                Ok(Expr::Array(items))
            }
            Tok::Punct("{") => {
                let mut pairs = Vec::new();
                if !self.eat_punct("}") {
                    loop {
                        let key = match self.bump() {
                            Tok::Str(s) => s,
                            Tok::Ident(s) => s,
                            other => {
                                return err(format!("expected object key, found {other:?}"), line)
                            }
                        };
                        self.expect_punct(":")?;
                        pairs.push((key, self.parse_expr()?));
                        if self.eat_punct("}") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                Ok(Expr::ObjectLit(pairs))
            }
            other => err(format!("unexpected token {other:?}"), line),
        }
    }
}

// ------------------------------------------------------------ evaluator --

/// A run's bindings. An assigned name lives only in `outputs`, so a read
/// looks in `vars` first and copies out of `outputs`.
struct Env {
    vars: HashMap<String, Value>,
    outputs: Object,
    /// Budget of evaluated nodes, bounding runaway scripts.
    fuel: usize,
}

const FUEL: usize = 1_000_000;

fn truthy(v: &Value) -> bool {
    match v {
        Value::Null => false,
        Value::Bool(b) => *b,
        Value::Number(n) => n.as_f64() != 0.0,
        Value::String(s) => !s.is_empty(),
        Value::Array(a) => !a.is_empty(),
        Value::Object(o) => !o.is_empty(),
    }
}

fn eval(e: &Expr, env: &mut Env) -> Result<Value, ScriptError> {
    if env.fuel == 0 {
        return err("script exceeded its execution budget", 0);
    }
    env.fuel -= 1;
    match e {
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Var(name, line, moves) => match *moves {
            true => env.vars.remove(name),
            false => env.vars.get(name).cloned(),
        }
        .or_else(|| env.outputs.get(name).cloned())
        .ok_or(ScriptError {
            message: format!("unknown variable {name:?}"),
            line: *line,
        }),
        Expr::Array(items) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(eval(item, env)?);
            }
            Ok(Value::Array(out))
        }
        Expr::ObjectLit(pairs) => {
            let mut o = Object::new();
            for (k, v) in pairs {
                let v = eval(v, env)?;
                o.insert(k.clone(), v);
            }
            Ok(Value::Object(o))
        }
        Expr::Unary(op, inner, line) => {
            let v = eval(inner, env)?;
            match (*op, v) {
                ("-", Value::Number(Number::Int(i))) => Ok(Value::from(-i)),
                ("-", Value::Number(Number::Float(f))) => Ok(Value::from(-f)),
                ("!", v) => Ok(Value::Bool(!truthy(&v))),
                (_, v) => err(format!("cannot negate {}", v.type_name()), *line),
            }
        }
        Expr::Binary(op, lhs, rhs, line) => {
            // Short-circuit logic first.
            if *op == "&&" {
                let l = eval(lhs, env)?;
                return if truthy(&l) { eval(rhs, env) } else { Ok(l) };
            }
            if *op == "||" {
                let l = eval(lhs, env)?;
                return if truthy(&l) { Ok(l) } else { eval(rhs, env) };
            }
            let l = eval(lhs, env)?;
            let r = eval(rhs, env)?;
            binop(op, l, r, *line)
        }
        Expr::Index(target, index, line) => {
            let t = eval(target, env)?;
            let i = eval(index, env)?;
            match (&t, &i) {
                (Value::Array(a), Value::Number(n)) => {
                    let idx = n.as_i64().filter(|&x| x >= 0).ok_or(ScriptError {
                        message: "array index must be a non-negative integer".into(),
                        line: *line,
                    })?;
                    a.get(idx as usize).cloned().ok_or(ScriptError {
                        message: format!("index {idx} out of bounds (len {})", a.len()),
                        line: *line,
                    })
                }
                (Value::Object(o), Value::String(k)) => {
                    Ok(o.get(k).cloned().unwrap_or(Value::Null))
                }
                _ => err(
                    format!("cannot index {} with {}", t.type_name(), i.type_name()),
                    *line,
                ),
            }
        }
        Expr::Member(target, field, line) => {
            let t = eval(target, env)?;
            match &t {
                Value::Object(o) => Ok(o.get(field).cloned().unwrap_or(Value::Null)),
                _ => err(
                    format!("cannot access field {field:?} on {}", t.type_name()),
                    *line,
                ),
            }
        }
        Expr::Call(name, args, line) => {
            // `if` evaluates lazily.
            if name == "if" {
                if args.len() != 3 {
                    return err("if(cond, then, else) takes 3 arguments", *line);
                }
                let c = eval(&args[0], env)?;
                return if truthy(&c) {
                    eval(&args[1], env)
                } else {
                    eval(&args[2], env)
                };
            }
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, env)?);
            }
            builtin(name, &vals, *line)
        }
    }
}

fn as_num(v: &Value, line: usize) -> Result<f64, ScriptError> {
    v.as_f64().ok_or(ScriptError {
        message: format!("expected number, got {}", v.type_name()),
        line,
    })
}

fn both_int(l: &Value, r: &Value) -> Option<(i64, i64)> {
    match (l, r) {
        (Value::Number(Number::Int(a)), Value::Number(Number::Int(b))) => Some((*a, *b)),
        _ => None,
    }
}

fn binop(op: &str, l: Value, r: Value, line: usize) -> Result<Value, ScriptError> {
    match op {
        "+" => {
            if matches!(l, Value::String(_)) || matches!(r, Value::String(_)) {
                return Ok(Value::from(format!("{}{}", to_text(&l), to_text(&r))));
            }
            if let (Value::Array(mut a), Value::Array(b)) = (l.clone(), r.clone()) {
                a.extend(b);
                return Ok(Value::Array(a));
            }
            if let Some((a, b)) = both_int(&l, &r) {
                return Ok(Value::from(a.wrapping_add(b)));
            }
            Ok(Value::from(as_num(&l, line)? + as_num(&r, line)?))
        }
        "-" => {
            if let Some((a, b)) = both_int(&l, &r) {
                return Ok(Value::from(a.wrapping_sub(b)));
            }
            Ok(Value::from(as_num(&l, line)? - as_num(&r, line)?))
        }
        "*" => {
            if let Some((a, b)) = both_int(&l, &r) {
                return Ok(Value::from(a.wrapping_mul(b)));
            }
            Ok(Value::from(as_num(&l, line)? * as_num(&r, line)?))
        }
        "/" => {
            let d = as_num(&r, line)?;
            if d == 0.0 {
                return err("division by zero", line);
            }
            Ok(Value::from(as_num(&l, line)? / d))
        }
        "%" => {
            if let Some((a, b)) = both_int(&l, &r) {
                if b == 0 {
                    return err("modulo by zero", line);
                }
                return Ok(Value::from(a.wrapping_rem(b)));
            }
            let d = as_num(&r, line)?;
            if d == 0.0 {
                return err("modulo by zero", line);
            }
            Ok(Value::from(as_num(&l, line)? % d))
        }
        "==" => Ok(Value::Bool(l == r)),
        "!=" => Ok(Value::Bool(l != r)),
        "<" | "<=" | ">" | ">=" => {
            let ord = match (&l, &r) {
                (Value::String(a), Value::String(b)) => a.cmp(b),
                _ => as_num(&l, line)?
                    .partial_cmp(&as_num(&r, line)?)
                    .ok_or(ScriptError {
                        message: "incomparable values".into(),
                        line,
                    })?,
            };
            let result = match op {
                "<" => ord.is_lt(),
                "<=" => ord.is_le(),
                ">" => ord.is_gt(),
                _ => ord.is_ge(),
            };
            Ok(Value::Bool(result))
        }
        other => err(format!("unknown operator {other:?}"), line),
    }
}

fn to_text(v: &Value) -> String {
    match v {
        Value::String(s) => s.clone(),
        other => other.to_string(),
    }
}

fn builtin(name: &str, args: &[Value], line: usize) -> Result<Value, ScriptError> {
    let arity = |n: usize| -> Result<(), ScriptError> {
        if args.len() == n {
            Ok(())
        } else {
            err(
                format!("{name} takes {n} argument(s), got {}", args.len()),
                line,
            )
        }
    };
    match name {
        "len" => {
            arity(1)?;
            let n = match &args[0] {
                Value::String(s) => s.chars().count(),
                Value::Array(a) => a.len(),
                Value::Object(o) => o.len(),
                other => return err(format!("len of {}", other.type_name()), line),
            };
            Ok(Value::from(n))
        }
        "min" | "max" => {
            if args.is_empty() {
                return err(format!("{name} needs at least one argument"), line);
            }
            let mut best = as_num(&args[0], line)?;
            let mut best_v = args[0].clone();
            for a in &args[1..] {
                let x = as_num(a, line)?;
                if (name == "min" && x < best) || (name == "max" && x > best) {
                    best = x;
                    best_v = a.clone();
                }
            }
            Ok(best_v)
        }
        "abs" => {
            arity(1)?;
            match &args[0] {
                Value::Number(Number::Int(i)) => Ok(Value::from(i.wrapping_abs())),
                other => Ok(Value::from(as_num(other, line)?.abs())),
            }
        }
        "floor" => {
            arity(1)?;
            Ok(Value::from(as_num(&args[0], line)?.floor() as i64))
        }
        "ceil" => {
            arity(1)?;
            Ok(Value::from(as_num(&args[0], line)?.ceil() as i64))
        }
        "round" => {
            arity(1)?;
            Ok(Value::from(as_num(&args[0], line)?.round() as i64))
        }
        "str" => {
            arity(1)?;
            Ok(Value::from(to_text(&args[0])))
        }
        "num" => {
            arity(1)?;
            match &args[0] {
                Value::Number(_) => Ok(args[0].clone()),
                Value::String(s) => {
                    if let Ok(i) = s.trim().parse::<i64>() {
                        Ok(Value::from(i))
                    } else {
                        s.trim()
                            .parse::<f64>()
                            .map(Value::from)
                            .map_err(|_| ScriptError {
                                message: format!("cannot convert {s:?} to a number"),
                                line,
                            })
                    }
                }
                other => err(
                    format!("cannot convert {} to a number", other.type_name()),
                    line,
                ),
            }
        }
        "split" => {
            arity(2)?;
            let (Value::String(s), Value::String(sep)) = (&args[0], &args[1]) else {
                return err("split(text, separator) takes two strings", line);
            };
            Ok(Value::Array(
                s.split(sep.as_str()).map(Value::from).collect(),
            ))
        }
        "join" => {
            arity(2)?;
            let (Value::Array(items), Value::String(sep)) = (&args[0], &args[1]) else {
                return err("join(array, separator) takes an array and a string", line);
            };
            let parts: Vec<String> = items.iter().map(to_text).collect();
            Ok(Value::from(parts.join(sep)))
        }
        "contains" => {
            arity(2)?;
            let found = match (&args[0], &args[1]) {
                (Value::String(s), Value::String(needle)) => s.contains(needle.as_str()),
                (Value::Array(a), needle) => a.contains(needle),
                (Value::Object(o), Value::String(k)) => o.contains_key(k),
                _ => return err("contains(haystack, needle) type mismatch", line),
            };
            Ok(Value::Bool(found))
        }
        "keys" => {
            arity(1)?;
            let Value::Object(o) = &args[0] else {
                return err("keys takes an object", line);
            };
            Ok(Value::Array(
                o.keys().map(|k| Value::from(k.as_str())).collect(),
            ))
        }
        "range" => {
            arity(2)?;
            let a = args[0].as_i64().ok_or(ScriptError {
                message: "range bounds must be integers".into(),
                line,
            })?;
            let b = args[1].as_i64().ok_or(ScriptError {
                message: "range bounds must be integers".into(),
                line,
            })?;
            if b < a || (b - a) > 100_000 {
                return err("invalid range", line);
            }
            Ok(Value::Array((a..b).map(Value::from).collect()))
        }
        "parse_json" => {
            arity(1)?;
            let Value::String(s) = &args[0] else {
                return err("parse_json takes a string", line);
            };
            mathcloud_json::parse(s).map_err(|e| ScriptError {
                message: format!("parse_json: {e}"),
                line,
            })
        }
        "to_json" => {
            arity(1)?;
            Ok(Value::from(args[0].to_string()))
        }
        other => err(format!("unknown function {other:?}"), line),
    }
}

fn parse_script(code: &str) -> Result<Vec<Stmt>, ScriptError> {
    Parser {
        tokens: lex(code)?,
        pos: 0,
    }
    .parse_program()
}

/// A parsed mcscript program with every read resolved: what a `Script`
/// block runs, compiled once when its workflow is validated.
#[derive(Debug, Clone)]
pub(crate) struct Program(Vec<Stmt>);

impl Program {
    /// Parses `code` and resolves each read, in evaluation order, against
    /// `inputs` and the names bound before it. A run evaluates a subsequence
    /// of that order (`if`, `&&` and `||` skip reads, never reorder them), so
    /// the read marked last for a variable's binding is the last a run can
    /// make, and it moves the value out.
    ///
    /// # Errors
    ///
    /// [`ScriptError`] with the offending line on a lexical or syntax error,
    /// or on a read of a name that nothing bound before it.
    pub(crate) fn compile<'i>(
        code: &str,
        inputs: impl IntoIterator<Item = &'i str>,
    ) -> Result<Program, ScriptError> {
        let mut stmts = parse_script(code)?;
        // `true` for a variable (an input or a `let`), `false` for an output.
        let mut bound: HashMap<String, bool> =
            inputs.into_iter().map(|n| (n.into(), true)).collect();
        let mut last = HashMap::new();
        for stmt in &mut stmts {
            let (name, expr, var) = match stmt {
                Stmt::Let(name, expr) => (name, expr, true),
                Stmt::Assign(name, expr) => (name, expr, false),
            };
            resolve(expr, &bound, &mut last)?;
            last.remove(name.as_str());
            bound.insert(name.clone(), var);
        }
        Ok(Program(stmts))
    }

    /// Whether some statement assigns `output`.
    pub(crate) fn assigns(&self, output: &str) -> bool {
        (self.0.iter()).any(|s| matches!(s, Stmt::Assign(name, _) if name == output))
    }

    /// Runs the program with the given input bindings, which become its
    /// variables without a copy; see [`run_script`].
    pub(crate) fn run(&self, inputs: Object) -> Result<Object, ScriptError> {
        let mut env = Env {
            vars: inputs.into_iter().collect(),
            outputs: Object::new(),
            fuel: FUEL,
        };
        for stmt in &self.0 {
            match stmt {
                Stmt::Let(name, expr) => {
                    let v = eval(expr, &mut env)?;
                    env.vars.insert(name.clone(), v);
                }
                Stmt::Assign(name, expr) => {
                    let v = eval(expr, &mut env)?;
                    env.vars.remove(name);
                    env.outputs.insert(name.clone(), v);
                }
            }
        }
        Ok(env.outputs)
    }
}

/// Resolves the reads in `e` against `bound`, marking each variable read as
/// its binding's last and unmarking the one `last` held before it.
fn resolve<'a>(
    e: &'a mut Expr,
    bound: &HashMap<String, bool>,
    last: &mut HashMap<String, &'a mut bool>,
) -> Result<(), ScriptError> {
    match e {
        Expr::Var(name, line, moves) => match bound.get(name.as_str()) {
            None => return err(format!("unknown variable {name:?}"), *line),
            Some(true) => {
                *moves = true;
                if let Some(earlier) = last.insert(name.clone(), moves) {
                    *earlier = false;
                }
            }
            Some(false) => {}
        },
        Expr::Lit(_) => {}
        Expr::Unary(_, a, _) | Expr::Member(a, ..) => resolve(a, bound, last)?,
        Expr::Binary(_, a, b, _) | Expr::Index(a, b, _) => {
            resolve(a, bound, last)?;
            resolve(b, bound, last)?;
        }
        Expr::Call(_, items, _) | Expr::Array(items) => {
            for item in items {
                resolve(item, bound, last)?;
            }
        }
        Expr::ObjectLit(pairs) => {
            for (_, item) in pairs {
                resolve(item, bound, last)?;
            }
        }
    }
    Ok(())
}

/// Compiles and runs an mcscript program with the given input bindings,
/// which become its variables without a copy.
///
/// Plain assignments (`name = expr;`) become outputs; `let` bindings stay
/// local. Inputs are visible as variables, and later statements read an
/// assigned name as the value it was last given.
///
/// # Errors
///
/// [`ScriptError`] with the offending line on lexical, syntax, name or
/// evaluation failure.
pub fn run_script(code: &str, inputs: Object) -> Result<Object, ScriptError> {
    Program::compile(code, inputs.keys().map(String::as_str))?.run(inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_json::json;

    fn run(code: &str, inputs: &[(&str, Value)]) -> Result<Object, ScriptError> {
        let obj: Object = inputs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        run_script(code, obj)
    }

    fn out(code: &str, inputs: &[(&str, Value)], key: &str) -> Value {
        run(code, inputs)
            .unwrap()
            .get(key)
            .cloned()
            .unwrap_or(Value::Null)
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(out("r = 2 + 3 * 4;", &[], "r"), json!(14));
        assert_eq!(out("r = (2 + 3) * 4;", &[], "r"), json!(20));
        assert_eq!(out("r = 7 % 3;", &[], "r"), json!(1));
        assert_eq!(out("r = 1 / 2;", &[], "r"), json!(0.5));
        assert_eq!(out("r = -3 + 1;", &[], "r"), json!(-2));
        assert_eq!(out("r = 2.5 * 2;", &[], "r"), json!(5.0));
    }

    #[test]
    fn string_operations() {
        assert_eq!(out(r#"r = "a" + "b" + 1;"#, &[], "r"), json!("ab1"));
        assert_eq!(out(r#"r = len("héllo");"#, &[], "r"), json!(5));
        assert_eq!(
            out(r#"r = join(split("a,b,c", ","), ";");"#, &[], "r"),
            json!("a;b;c")
        );
        assert_eq!(
            out(r#"r = contains("workflow", "flow");"#, &[], "r"),
            json!(true)
        );
    }

    #[test]
    fn variables_and_let_scoping() {
        let outputs = run("let t = x * 2; y = t + 1; z = y * y;", &[("x", json!(5))]).unwrap();
        assert_eq!(outputs.get("y"), Some(&json!(11)));
        assert_eq!(outputs.get("z"), Some(&json!(121)));
        assert!(outputs.get("t").is_none(), "let bindings are not outputs");
    }

    #[test]
    fn collections_and_access() {
        assert_eq!(out("r = [1, 2, 3][1];", &[], "r"), json!(2));
        assert_eq!(out(r#"r = {"a": 1, "b": 2}.b;"#, &[], "r"), json!(2));
        assert_eq!(out(r#"r = {"a": 1}["a"];"#, &[], "r"), json!(1));
        assert_eq!(out("r = len(range(0, 5));", &[], "r"), json!(5));
        assert_eq!(out("r = [1] + [2, 3];", &[], "r"), json!([1, 2, 3]));
        assert_eq!(
            out(r#"r = keys({x: 1, y: 2});"#, &[], "r"),
            json!(["x", "y"])
        );
        assert_eq!(
            out(r#"r = obj.missing;"#, &[("obj", json!({"a": 1}))], "r"),
            Value::Null
        );
    }

    #[test]
    fn logic_and_comparison() {
        assert_eq!(out("r = 1 < 2 && 2 <= 2;", &[], "r"), json!(true));
        assert_eq!(out(r#"r = "abc" < "abd";"#, &[], "r"), json!(true));
        assert_eq!(
            out(
                "r = if(x > 10, \"big\", \"small\");",
                &[("x", json!(11))],
                "r"
            ),
            json!("big")
        );
        assert_eq!(out("r = !0;", &[], "r"), json!(true));
        assert_eq!(out("r = 1 == 1.0;", &[], "r"), json!(true));
        // Short-circuit: the division by zero on the right is never reached.
        assert_eq!(out("r = false && (1 / 0);", &[], "r"), json!(false));
        assert_eq!(out("r = true || (1 / 0);", &[], "r"), json!(true));
    }

    #[test]
    fn json_bridge() {
        assert_eq!(out(r#"r = parse_json("[1,2]")[0];"#, &[], "r"), json!(1));
        assert_eq!(
            out(r#"r = to_json({"k": 1});"#, &[], "r"),
            json!(r#"{"k":1}"#)
        );
    }

    #[test]
    fn numeric_builtins() {
        assert_eq!(out("r = min(3, 1, 2);", &[], "r"), json!(1));
        assert_eq!(out("r = max(3, 1, 2);", &[], "r"), json!(3));
        assert_eq!(out("r = abs(-4);", &[], "r"), json!(4));
        assert_eq!(
            out("r = floor(2.9) + ceil(2.1) + round(2.5);", &[], "r"),
            json!(8)
        );
        assert_eq!(
            out(r#"r = num("42") + num(" 2.5 ");"#, &[], "r"),
            json!(44.5)
        );
    }

    #[test]
    fn comments_and_whitespace() {
        assert_eq!(out("# header\nr = 1; # trailing\n", &[], "r"), json!(1));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = run("let a = 1;\nr = undefined_var;", &[]).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("undefined_var"));
        let e = run("r = 1 +;", &[]).unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn runtime_errors_are_reported() {
        assert!(run("r = 1 / 0;", &[]).is_err());
        assert!(run("r = [1][5];", &[]).is_err());
        assert!(run("r = len(5);", &[]).is_err());
        assert!(run(r#"r = num("abc");"#, &[]).is_err());
        assert!(run("r = nosuchfn(1);", &[]).is_err());
        assert!(run(r#"r = "unterminated;"#, &[]).is_err());
        assert!(run("r = range(0, 1000000);", &[]).is_err());
    }

    #[test]
    fn assignments_are_visible_downstream() {
        let outputs = run("a = 2; b = a * 3;", &[]).unwrap();
        assert_eq!(outputs.get("b"), Some(&json!(6)));
    }

    #[test]
    fn paper_use_case_building_service_inputs() {
        // "create complex string inputs for services from user data"
        let code = r#"
            let header = "AMPL-DATA v1";
            let lines = join(rows, "\n");
            payload = header + "\n" + lines + "\nEND";
            rows_count = len(rows);
        "#;
        let outputs = run(code, &[("rows", json!(["a 1", "b 2"]))]).unwrap();
        assert_eq!(
            outputs.get("payload").unwrap().as_str().unwrap(),
            "AMPL-DATA v1\na 1\nb 2\nEND"
        );
        assert_eq!(outputs.get("rows_count"), Some(&json!(2)));
    }
}
