//! Recursive-descent parser with Lua 5.1 operator precedence.

use crate::ast::{BinOp, Block, Expr, LValue, Script, Stmt, UnOp};
use crate::error::{PolicyError, PolicyResult};
use crate::lexer::lex;
use crate::token::{Token, TokenKind};

/// Parse a full script (a block of statements).
pub fn parse_script(src: &str) -> PolicyResult<Script> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let block = p.block()?;
    p.expect(TokenKind::Eof)?;
    Ok(Script { block })
}

/// Parse source that may be either a bare expression (the common form of
/// the `metaload` / `mdsload` hooks, e.g. `IRD + 2*IWR`) or a full script.
///
/// A bare expression compiles to `return <expr>`.
pub fn parse_expression_script(src: &str) -> PolicyResult<Script> {
    // Try the expression interpretation first; a script like `x = 1` will
    // fail it and fall through to the full parser.
    if let Ok(tokens) = lex(src) {
        let mut p = Parser::new(tokens);
        if let Ok(expr) = p.expr() {
            if p.check(&TokenKind::Eof) {
                return Ok(Script {
                    block: Block {
                        stmts: vec![Stmt::Return {
                            value: Some(expr),
                            line: 1,
                        }],
                    },
                });
            }
        }
    }
    parse_script(src)
}

/// Parse the condition of a "when" hook. The paper writes these either as a
/// bare condition or in the truncated form `if <cond> then` (Table 1); both
/// are accepted, as is a full script that `return`s the decision.
pub fn parse_when(src: &str) -> PolicyResult<Script> {
    let trimmed = strip_comments(src);
    let trimmed = trimmed.trim();
    if let Some(rest) = trimmed.strip_prefix("if ") {
        if let Some(cond) = rest.trim_end().strip_suffix("then") {
            // `if <cond> then` with nothing after: treat as the condition.
            return parse_expression_script(cond);
        }
    }
    parse_expression_script(trimmed)
}

fn strip_comments(src: &str) -> String {
    src.lines()
        .map(|l| match l.find("--") {
            Some(i) => &l[..i],
            None => l,
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Deepest nesting the parser accepts: blocks inside blocks, operators
/// applied to operators, parenthesized or indexed subexpressions, and
/// left-associative operator chains all count one level each. Scripts
/// come from operators over the wire, and the parser, the resolver and
/// the tree interpreter all recurse once per level, so an unbounded depth
/// would let one policy overflow the stack. Lua's own limit on nested C
/// calls is the same 200.
const MAX_DEPTH: u32 = 200;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting depth, bounded by [`MAX_DEPTH`].
    depth: u32,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    /// Descend one nesting level, failing past [`MAX_DEPTH`]. Pair every
    /// successful call with [`Self::leave`]; a failed parse abandons the
    /// parser, so error paths need not unwind the count.
    fn enter(&mut self) -> PolicyResult<()> {
        if self.depth == MAX_DEPTH {
            return Err(PolicyError::Parse {
                line: self.line(),
                message: format!("nesting deeper than {MAX_DEPTH} levels"),
            });
        }
        self.depth += 1;
        Ok(())
    }

    fn leave(&mut self, levels: u32) {
        self.depth -= levels;
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn line(&self) -> u32 {
        self.peek().line
    }

    fn check(&self, kind: &TokenKind) -> bool {
        &self.peek().kind == kind
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.check(kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> PolicyResult<Token> {
        if self.check(&kind) {
            Ok(self.advance())
        } else {
            Err(PolicyError::Parse {
                line: self.line(),
                message: format!("expected {kind}, found {}", self.peek().kind),
            })
        }
    }

    fn block_ends(&self) -> bool {
        matches!(
            self.peek().kind,
            TokenKind::End
                | TokenKind::Else
                | TokenKind::Elseif
                | TokenKind::Until
                | TokenKind::Eof
        )
    }

    fn block(&mut self) -> PolicyResult<Block> {
        self.enter()?;
        let mut stmts = Vec::new();
        while !self.block_ends() {
            // `return` must be the last statement of a block in Lua.
            let is_return = self.check(&TokenKind::Return);
            stmts.push(self.statement()?);
            while self.eat(&TokenKind::Semi) {}
            if is_return {
                break;
            }
        }
        self.leave(1);
        Ok(Block { stmts })
    }

    fn statement(&mut self) -> PolicyResult<Stmt> {
        let line = self.line();
        match &self.peek().kind {
            TokenKind::Local => {
                self.advance();
                let name = self.name()?;
                let value = if self.eat(&TokenKind::Assign) {
                    Some(self.expr()?)
                } else {
                    None
                };
                Ok(Stmt::Local { name, value, line })
            }
            TokenKind::If => self.if_statement(),
            TokenKind::While => {
                self.advance();
                let cond = self.expr()?;
                self.expect(TokenKind::Do)?;
                let body = self.block()?;
                self.expect(TokenKind::End)?;
                Ok(Stmt::While { cond, body, line })
            }
            TokenKind::For => self.for_statement(),
            TokenKind::Do => {
                self.advance();
                let body = self.block()?;
                self.expect(TokenKind::End)?;
                Ok(Stmt::Do { body })
            }
            TokenKind::Return => {
                self.advance();
                let value = if self.block_ends() || self.check(&TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                Ok(Stmt::Return { value, line })
            }
            TokenKind::Break => {
                self.advance();
                Ok(Stmt::Break { line })
            }
            TokenKind::Function => Err(PolicyError::Unsupported {
                line,
                feature: "function definitions (policies are single scripts; use the host \
                          functions from the Mantle environment)"
                    .into(),
            }),
            TokenKind::Repeat => Err(PolicyError::Unsupported {
                line,
                feature: "repeat/until loops (use while)".into(),
            }),
            _ => self.assignment_or_call(),
        }
    }

    fn if_statement(&mut self) -> PolicyResult<Stmt> {
        let line = self.line();
        self.expect(TokenKind::If)?;
        let mut arms = Vec::new();
        let cond = self.expr()?;
        self.expect(TokenKind::Then)?;
        let body = self.block()?;
        arms.push((cond, body));
        let mut else_block = None;
        loop {
            match self.peek().kind {
                TokenKind::Elseif => {
                    self.advance();
                    let c = self.expr()?;
                    self.expect(TokenKind::Then)?;
                    let b = self.block()?;
                    arms.push((c, b));
                }
                TokenKind::Else => {
                    self.advance();
                    else_block = Some(self.block()?);
                    self.expect(TokenKind::End)?;
                    break;
                }
                TokenKind::End => {
                    self.advance();
                    break;
                }
                _ => {
                    return Err(PolicyError::Parse {
                        line: self.line(),
                        message: format!(
                            "expected 'elseif', 'else' or 'end', found {}",
                            self.peek().kind
                        ),
                    });
                }
            }
        }
        Ok(Stmt::If {
            arms,
            else_block,
            line,
        })
    }

    fn for_statement(&mut self) -> PolicyResult<Stmt> {
        let line = self.line();
        self.expect(TokenKind::For)?;
        let var = self.name()?;
        if self.check(&TokenKind::In) || self.check(&TokenKind::Comma) {
            return Err(PolicyError::Unsupported {
                line,
                feature: "generic for-in loops (use numeric for over 1..#MDSs)".into(),
            });
        }
        self.expect(TokenKind::Assign)?;
        let start = self.expr()?;
        self.expect(TokenKind::Comma)?;
        let stop = self.expr()?;
        let step = if self.eat(&TokenKind::Comma) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(TokenKind::Do)?;
        let body = self.block()?;
        self.expect(TokenKind::End)?;
        Ok(Stmt::NumericFor {
            var,
            start,
            stop,
            step,
            body,
            line,
        })
    }

    fn assignment_or_call(&mut self) -> PolicyResult<Stmt> {
        let line = self.line();
        let expr = self.prefix_expr()?;
        if self.eat(&TokenKind::Assign) {
            let target = match expr {
                Expr::Name(name, _) => LValue::Name(name),
                Expr::Index { object, key, .. } => LValue::Index {
                    object: *object,
                    key: *key,
                },
                _ => {
                    return Err(PolicyError::Parse {
                        line,
                        message: "invalid assignment target".into(),
                    });
                }
            };
            let value = self.expr()?;
            Ok(Stmt::Assign {
                target,
                value,
                line,
            })
        } else {
            if !matches!(expr, Expr::Call { .. }) {
                return Err(PolicyError::Parse {
                    line,
                    message: "expected statement (only calls can stand alone)".into(),
                });
            }
            Ok(Stmt::ExprStmt { expr, line })
        }
    }

    fn name(&mut self) -> PolicyResult<String> {
        match self.peek().kind.clone() {
            TokenKind::Name(n) => {
                self.advance();
                Ok(n)
            }
            other => Err(PolicyError::Parse {
                line: self.line(),
                message: format!("expected a name, found {other}"),
            }),
        }
    }

    // ---- expressions (precedence climbing, Lua 5.1 table) ----

    fn expr(&mut self) -> PolicyResult<Expr> {
        self.binary_expr(0)
    }

    fn binary_expr(&mut self, min_prec: u8) -> PolicyResult<Expr> {
        let mut lhs = self.unary_expr()?;
        // Each operator folded in below nests `lhs` one level deeper.
        let mut levels = 0;
        loop {
            let (op, lprec, rprec) = match self.peek().kind {
                TokenKind::Or => (BinOp::Or, 1, 2),
                TokenKind::And => (BinOp::And, 3, 4),
                TokenKind::Lt => (BinOp::Lt, 5, 6),
                TokenKind::Gt => (BinOp::Gt, 5, 6),
                TokenKind::Le => (BinOp::Le, 5, 6),
                TokenKind::Ge => (BinOp::Ge, 5, 6),
                TokenKind::NotEq => (BinOp::Ne, 5, 6),
                TokenKind::EqEq => (BinOp::Eq, 5, 6),
                // `..` is right-associative.
                TokenKind::Concat => (BinOp::Concat, 9, 8),
                TokenKind::Plus => (BinOp::Add, 10, 11),
                TokenKind::Minus => (BinOp::Sub, 10, 11),
                TokenKind::Star => (BinOp::Mul, 12, 13),
                TokenKind::Slash => (BinOp::Div, 12, 13),
                TokenKind::Percent => (BinOp::Mod, 12, 13),
                _ => break,
            };
            if lprec < min_prec {
                break;
            }
            let line = self.line();
            self.advance();
            self.enter()?;
            levels += 1;
            let rhs = self.binary_expr(rprec)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        self.leave(levels);
        Ok(lhs)
    }

    /// Every nested subexpression passes through here (operands,
    /// parentheses, index keys, call arguments, table fields), so this is
    /// where expression depth is counted.
    fn unary_expr(&mut self) -> PolicyResult<Expr> {
        self.enter()?;
        let line = self.line();
        let op = match self.peek().kind {
            TokenKind::Not => Some(UnOp::Not),
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Hash => Some(UnOp::Len),
            _ => None,
        };
        let expr = if let Some(op) = op {
            self.advance();
            // Unary binds tighter than binary ops except `^`.
            let operand = self.unary_expr()?;
            Expr::Unary {
                op,
                operand: Box::new(operand),
                line,
            }
        } else {
            self.pow_expr()?
        };
        self.leave(1);
        Ok(expr)
    }

    fn pow_expr(&mut self) -> PolicyResult<Expr> {
        let base = self.postfix_expr()?;
        if self.check(&TokenKind::Caret) {
            let line = self.line();
            self.advance();
            // Right-associative and tighter than unary on the right:
            // `a ^ -b ^ c` parses as `a ^ (-(b ^ c))`.
            let exp = self.unary_expr()?;
            return Ok(Expr::Binary {
                op: BinOp::Pow,
                lhs: Box::new(base),
                rhs: Box::new(exp),
                line,
            });
        }
        Ok(base)
    }

    fn postfix_expr(&mut self) -> PolicyResult<Expr> {
        let mut expr = self.primary_expr()?;
        loop {
            match self.peek().kind {
                TokenKind::Dot => {
                    let line = self.line();
                    self.advance();
                    let key = self.name()?;
                    expr = Expr::Index {
                        object: Box::new(expr),
                        key: Box::new(Expr::Str(key)),
                        line,
                    };
                }
                TokenKind::LBracket => {
                    let line = self.line();
                    self.advance();
                    let key = self.expr()?;
                    self.expect(TokenKind::RBracket)?;
                    expr = Expr::Index {
                        object: Box::new(expr),
                        key: Box::new(key),
                        line,
                    };
                }
                TokenKind::LParen => {
                    let line = self.line();
                    self.advance();
                    let mut args = Vec::new();
                    if !self.check(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                    expr = Expr::Call {
                        callee: Box::new(expr),
                        args,
                        line,
                    };
                }
                TokenKind::Colon => {
                    return Err(PolicyError::Unsupported {
                        line: self.line(),
                        feature: "method calls (t:f())".into(),
                    });
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    /// A prefix expression: name or parenthesized expression followed by
    /// postfix operators. Used for statement heads (assignment targets and
    /// call statements).
    fn prefix_expr(&mut self) -> PolicyResult<Expr> {
        match self.peek().kind {
            TokenKind::Name(_) | TokenKind::LParen => self.postfix_expr(),
            _ => Err(PolicyError::Parse {
                line: self.line(),
                message: format!("expected statement, found {}", self.peek().kind),
            }),
        }
    }

    fn primary_expr(&mut self) -> PolicyResult<Expr> {
        let line = self.line();
        match self.peek().kind.clone() {
            TokenKind::Nil => {
                self.advance();
                Ok(Expr::Nil)
            }
            TokenKind::True => {
                self.advance();
                Ok(Expr::Bool(true))
            }
            TokenKind::False => {
                self.advance();
                Ok(Expr::Bool(false))
            }
            TokenKind::Number(n) => {
                self.advance();
                Ok(Expr::Number(n))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::Str(s))
            }
            TokenKind::Name(n) => {
                self.advance();
                Ok(Expr::Name(n, line))
            }
            TokenKind::LParen => {
                self.advance();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::LBrace => self.table_ctor(),
            TokenKind::Function => Err(PolicyError::Unsupported {
                line,
                feature: "function expressions".into(),
            }),
            other => Err(PolicyError::Parse {
                line,
                message: format!("expected an expression, found {other}"),
            }),
        }
    }

    fn table_ctor(&mut self) -> PolicyResult<Expr> {
        let line = self.line();
        self.expect(TokenKind::LBrace)?;
        let mut items = Vec::new();
        let mut pairs = Vec::new();
        while !self.check(&TokenKind::RBrace) {
            match self.peek().kind.clone() {
                TokenKind::LBracket => {
                    self.advance();
                    let key = self.expr()?;
                    self.expect(TokenKind::RBracket)?;
                    self.expect(TokenKind::Assign)?;
                    let value = self.expr()?;
                    pairs.push((key, value));
                }
                TokenKind::Name(n)
                    if self.tokens.get(self.pos + 1).map(|t| &t.kind)
                        == Some(&TokenKind::Assign) =>
                {
                    self.advance();
                    self.advance();
                    let value = self.expr()?;
                    pairs.push((Expr::Str(n), value));
                }
                _ => items.push(self.expr()?),
            }
            if !(self.eat(&TokenKind::Comma) || self.eat(&TokenKind::Semi)) {
                break;
            }
        }
        self.expect(TokenKind::RBrace)?;
        Ok(Expr::TableCtor { items, pairs, line })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_assignment() {
        let s = parse_script("metaload = IWR").unwrap();
        assert_eq!(s.block.stmts.len(), 1);
        assert!(matches!(
            &s.block.stmts[0],
            Stmt::Assign {
                target: LValue::Name(n),
                ..
            } if n == "metaload"
        ));
    }

    #[test]
    fn parses_indexed_assignment() {
        let s = parse_script("targets[whoami+1]=allmetaload/2").unwrap();
        assert!(matches!(
            &s.block.stmts[0],
            Stmt::Assign {
                target: LValue::Index { .. },
                ..
            }
        ));
    }

    #[test]
    fn precedence_mul_over_add() {
        let s = parse_expression_script("1 + 2 * 3").unwrap();
        let Stmt::Return {
            value: Some(Expr::Binary { op, rhs, .. }),
            ..
        } = &s.block.stmts[0]
        else {
            panic!("expected return of binary expr");
        };
        assert_eq!(*op, BinOp::Add);
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let s = parse_expression_script("a or b and c").unwrap();
        let Stmt::Return {
            value: Some(Expr::Binary { op, .. }),
            ..
        } = &s.block.stmts[0]
        else {
            panic!()
        };
        assert_eq!(*op, BinOp::Or);
    }

    #[test]
    fn comparison_chain_from_listing_1() {
        let src = r#"MDSs[whoami]["load"]>.01 and MDSs[whoami+1]["load"]<.01"#;
        assert!(parse_expression_script(src).is_ok());
    }

    #[test]
    fn parses_if_elseif_else() {
        let src = "if a then x=1 elseif b then x=2 else x=3 end";
        let s = parse_script(src).unwrap();
        let Stmt::If {
            arms, else_block, ..
        } = &s.block.stmts[0]
        else {
            panic!()
        };
        assert_eq!(arms.len(), 2);
        assert!(else_block.is_some());
    }

    #[test]
    fn parses_while_with_complex_cond() {
        let src = r#"while t~=whoami and MDSs[t]["load"]<.01 do t=t-1 end"#;
        assert!(parse_script(src).is_ok());
    }

    #[test]
    fn parses_numeric_for() {
        let src = "for i=1,#MDSs do targets[i]=0 end";
        let s = parse_script(src).unwrap();
        assert!(matches!(
            &s.block.stmts[0],
            Stmt::NumericFor { step: None, .. }
        ));
        let src2 = "for i=10,1,-1 do x=i end";
        let s2 = parse_script(src2).unwrap();
        assert!(matches!(
            &s2.block.stmts[0],
            Stmt::NumericFor { step: Some(_), .. }
        ));
    }

    #[test]
    fn generic_for_is_unsupported() {
        assert!(matches!(
            parse_script("for k,v in pairs(t) do end"),
            Err(PolicyError::Unsupported { .. })
        ));
    }

    #[test]
    fn function_defs_are_unsupported() {
        assert!(matches!(
            parse_script("function f() end"),
            Err(PolicyError::Unsupported { .. })
        ));
    }

    #[test]
    fn table_constructors() {
        let s = parse_expression_script(r#"{"half","small","big","big_small"}"#).unwrap();
        let Stmt::Return {
            value: Some(Expr::TableCtor { items, pairs, .. }),
            ..
        } = &s.block.stmts[0]
        else {
            panic!()
        };
        assert_eq!(items.len(), 4);
        assert!(pairs.is_empty());
        let s2 = parse_expression_script(r#"{a=1, ["b"]=2, 3}"#).unwrap();
        let Stmt::Return {
            value: Some(Expr::TableCtor { items, pairs, .. }),
            ..
        } = &s2.block.stmts[0]
        else {
            panic!()
        };
        assert_eq!(items.len(), 1);
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn call_statement() {
        let s = parse_script("WRstate(2)").unwrap();
        assert!(matches!(&s.block.stmts[0], Stmt::ExprStmt { .. }));
    }

    #[test]
    fn bare_expression_is_not_a_statement() {
        assert!(matches!(
            parse_script("1 + 2"),
            Err(PolicyError::Parse { .. })
        ));
    }

    #[test]
    fn return_statement() {
        let s = parse_script("return MDSs[whoami][\"load\"] > 5").unwrap();
        assert!(matches!(
            &s.block.stmts[0],
            Stmt::Return { value: Some(_), .. }
        ));
        let s2 = parse_script("if a then return end").unwrap();
        assert_eq!(s2.block.stmts.len(), 1);
    }

    #[test]
    fn when_hook_forms() {
        // Table 1 truncated form.
        assert!(parse_when("if MDSs[whoami][\"load\"] > total/#MDSs then").is_ok());
        // Bare condition.
        assert!(parse_when("MDSs[whoami][\"cpu\"] > 48").is_ok());
        // Full script.
        assert!(parse_when("wait=RDstate() return wait > 0").is_ok());
    }

    #[test]
    fn concat_right_associative() {
        let s = parse_expression_script("\"a\" .. \"b\" .. \"c\"").unwrap();
        let Stmt::Return {
            value: Some(Expr::Binary { rhs, .. }),
            ..
        } = &s.block.stmts[0]
        else {
            panic!()
        };
        assert!(matches!(
            **rhs,
            Expr::Binary {
                op: BinOp::Concat,
                ..
            }
        ));
    }

    #[test]
    fn pow_tighter_than_neg() {
        // -x^2 must parse as -(x^2).
        let s = parse_expression_script("-x^2").unwrap();
        let Stmt::Return {
            value: Some(Expr::Unary { op, operand, .. }),
            ..
        } = &s.block.stmts[0]
        else {
            panic!()
        };
        assert_eq!(*op, UnOp::Neg);
        assert!(matches!(**operand, Expr::Binary { op: BinOp::Pow, .. }));
    }

    #[test]
    fn listing_2_parses_fully() {
        let src = r#"
-- When policy
t=((#MDSs-whoami+1)/2)+whoami
if t>#MDSs then t=whoami end
while t~=whoami and MDSs[t]["load"]<.01 do t=t-1 end
if MDSs[whoami]["load"]>.01 and MDSs[t]["load"]<.01 then
  -- Where policy
  targets[t]=MDSs[whoami]["load"]/2
end
"#;
        assert!(parse_script(src).is_ok());
    }

    #[test]
    fn listing_4_parses_fully() {
        let src = r#"
max=0
for i=1,#MDSs do
  max = math_max(MDSs[i]["load"], max)
end
myLoad = MDSs[whoami]["load"]
if myLoad>total/2 and myLoad>=max then
  targetLoad=total/#MDSs
  for i=1,#MDSs do
    if MDSs[i]["load"]<targetLoad then
      targets[i]=targetLoad-MDSs[i]["load"]
    end
  end
end
"#;
        assert!(parse_script(src).is_ok());
    }

    #[test]
    fn dot_indexing() {
        let s = parse_script("x = mds.load").unwrap();
        let Stmt::Assign { value, .. } = &s.block.stmts[0] else {
            panic!()
        };
        assert!(matches!(value, Expr::Index { .. }));
    }

    /// The deepest (or longest-chained) source at `depth`, in each shape
    /// the depth bound covers.
    fn nested(depth: usize) -> [String; 5] {
        [
            format!("return {}1{}", "(".repeat(depth), ")".repeat(depth)),
            format!("return {}1", "- ".repeat(depth)),
            format!("return 1{}", " + 1".repeat(depth)),
            format!("return {}t{}", "t[".repeat(depth), "]".repeat(depth)),
            format!("{}x = 1{}", "do ".repeat(depth), " end".repeat(depth)),
        ]
    }

    #[test]
    fn nesting_is_bounded() {
        for src in nested(20_000) {
            let err = parse_script(&src).unwrap_err();
            assert!(
                matches!(&err, PolicyError::Parse { message, .. } if message.contains("nesting")),
                "{}…: {err}",
                &src[..40]
            );
            assert!(parse_expression_script(&src).is_err());
        }
    }

    #[test]
    fn nesting_just_inside_the_bound_runs_on_a_default_thread_stack() {
        // Everything downstream of the parser recurses once per level too;
        // at the bound it must all fit a spawned thread's default stack,
        // in every build profile.
        std::thread::spawn(|| {
            for src in nested(MAX_DEPTH as usize - 3) {
                let script = parse_script(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
                let mut interp = crate::Interpreter::new();
                interp.set_global("t", crate::Value::table(crate::Table::new()));
                let tree = interp.run(&script);
                let prog = crate::SlotProgram::compile(&script);
                let bc = crate::BytecodeProgram::compile(&prog);
                let mut vm = crate::BytecodeVm::new(&bc, crate::StepBudget::default());
                if let Some(slot) = prog.global_slot("t") {
                    vm.set_global(slot, crate::Value::table(crate::Table::new()));
                }
                assert_eq!(tree.is_ok(), vm.run(&bc).is_ok(), "{src}");
                let _ = crate::script_to_source(&script);
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn error_reports_line() {
        let err = parse_script("x = 1\ny = = 2").unwrap_err();
        assert_eq!(err.line(), Some(2));
    }
}
