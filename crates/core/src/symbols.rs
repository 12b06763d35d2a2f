//! Symbol table: lexically scoped variables plus the function registry.
//!
//! Mirrors the paper's design (§3): "the resulting Abstract Syntax Tree
//! is traversed to instantiate symbols, represented by instances of a
//! custom class, Symbol. Each Symbol object encapsulates essential
//! information, including type and scope."

use crate::value::{Cell, Value};
use qutes_frontend::{Diagnostic, FunctionDecl, Item, Program, Span, Type};
use std::collections::HashMap;
use std::rc::Rc;

/// One declared variable.
#[derive(Clone, Debug)]
pub struct Symbol {
    /// Declared (static) type.
    pub ty: Type,
    /// The shared value cell.
    pub value: Cell,
    /// Declaration site.
    pub span: Span,
}

/// A stack of lexical scopes mapping names to symbols. Function calls
/// open a frame: inside it only the global scope and the frame's own
/// scopes are visible, but the caller's scopes stay in the table (so a
/// fork of the whole environment sees them too).
#[derive(Debug)]
pub struct SymbolTable {
    scopes: Vec<HashMap<String, Symbol>>,
    /// Index of the first scope of the innermost frame (1 at top level).
    base: usize,
    /// Saved `base` of every enclosing frame.
    frames: Vec<usize>,
}

impl Default for SymbolTable {
    fn default() -> Self {
        Self::new()
    }
}

impl SymbolTable {
    /// A table with one (global) scope.
    pub fn new() -> Self {
        SymbolTable {
            scopes: vec![HashMap::new()],
            base: 1,
            frames: Vec::new(),
        }
    }

    /// Enters a nested scope.
    pub fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    /// Leaves the innermost scope. The global scope is never popped.
    pub fn pop_scope(&mut self) {
        if self.scopes.len() > 1 {
            self.scopes.pop();
        }
    }

    /// Current nesting depth (1 = global only).
    pub fn depth(&self) -> usize {
        self.scopes.len()
    }

    /// Declares `name` in the innermost scope. Errors if the same scope
    /// already declares it (shadowing outer scopes is allowed).
    pub fn declare(
        &mut self,
        name: &str,
        ty: Type,
        value: Cell,
        span: Span,
    ) -> Result<(), Diagnostic> {
        let scope = self.scopes.last_mut().expect("at least one scope");
        if scope.contains_key(name) {
            return Err(Diagnostic::error(
                format!("variable '{name}' is already declared in this scope"),
                span,
            ));
        }
        scope.insert(name.to_string(), Symbol { ty, value, span });
        Ok(())
    }

    /// Declares or rebinds without the duplicate check (used to bind
    /// function parameters and loop variables).
    pub fn bind(&mut self, name: &str, ty: Type, value: Cell, span: Span) {
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .insert(name.to_string(), Symbol { ty, value, span });
    }

    /// Enters a function body: hides every scope above the global one
    /// (callee code must not see caller locals) until the matching
    /// [`Self::exit_function`].
    pub fn enter_function(&mut self) {
        self.frames.push(self.base);
        self.base = self.scopes.len();
    }

    /// Leaves the innermost function frame, dropping its scopes and
    /// making the caller's scopes visible again.
    pub fn exit_function(&mut self) {
        self.scopes.truncate(self.base.max(1));
        self.base = self.frames.pop().unwrap_or(1);
    }

    /// The visible scopes, innermost first.
    fn visible_scopes(&self) -> impl Iterator<Item = &HashMap<String, Symbol>> {
        let base = self.base.min(self.scopes.len());
        self.scopes[base..].iter().rev().chain(self.scopes.first())
    }

    /// Looks `name` up from the innermost scope outwards.
    pub fn lookup(&self, name: &str) -> Option<&Symbol> {
        self.visible_scopes().find_map(|s| s.get(name))
    }

    /// Shared handle to a variable's value cell.
    pub fn cell(&self, name: &str) -> Option<Cell> {
        self.lookup(name).map(|s| Rc::clone(&s.value))
    }

    /// Every cell reachable from the table — visible or hidden by a
    /// function frame, through array elements too — each once.
    pub fn reachable_cells(&self) -> Vec<Cell> {
        let roots = self.scopes.iter().flat_map(|s| s.values());
        collect_cells(roots.map(|s| Rc::clone(&s.value)).collect())
    }

    /// Every cell reachable from the visible scopes, each once.
    pub fn visible_cells(&self) -> Vec<Cell> {
        let roots = self.visible_scopes().flat_map(|s| s.values());
        collect_cells(roots.map(|s| Rc::clone(&s.value)).collect())
    }
}

/// The cells in `stack` plus every array element cell reachable from
/// them, deduplicated by identity.
fn collect_cells(mut stack: Vec<Cell>) -> Vec<Cell> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    while let Some(c) = stack.pop() {
        if !seen.insert(Rc::as_ptr(&c)) {
            continue;
        }
        if let Value::Array(items) = &*c.borrow() {
            stack.extend(items.borrow().iter().cloned());
        }
        out.push(c);
    }
    out
}

/// The function registry built by the first (declaration) pass. It
/// borrows the declarations from the program being run.
#[derive(Default, Debug, Clone)]
pub struct FunctionTable<'p> {
    functions: HashMap<&'p str, &'p FunctionDecl>,
}

impl<'p> FunctionTable<'p> {
    /// Builds the registry, rejecting duplicate names.
    pub fn build(decls: &[&'p FunctionDecl]) -> Result<Self, Vec<Diagnostic>> {
        let mut functions = HashMap::new();
        let mut diags = Vec::new();
        for &f in decls {
            if functions.insert(f.name.as_str(), f).is_some() {
                diags.push(Diagnostic::error(
                    format!("function '{}' is declared more than once", f.name),
                    f.span,
                ));
            }
        }
        if diags.is_empty() {
            Ok(FunctionTable { functions })
        } else {
            Err(diags)
        }
    }

    /// The registry of every function `program` declares.
    pub fn of_program(program: &'p Program) -> Result<Self, Vec<Diagnostic>> {
        let decls: Vec<&FunctionDecl> = program
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Function(f) => Some(f),
                _ => None,
            })
            .collect();
        Self::build(&decls)
    }

    /// Looks a function up by name.
    pub fn get(&self, name: &str) -> Option<&'p FunctionDecl> {
        self.functions.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::cell;
    use qutes_frontend::parse;

    #[test]
    fn declare_and_lookup() {
        let mut t = SymbolTable::new();
        t.declare("x", Type::Int, cell(Value::Int(1)), Span::default())
            .unwrap();
        assert!(t.lookup("x").is_some());
        assert!(t.lookup("y").is_none());
        assert_eq!(t.lookup("x").unwrap().ty, Type::Int);
    }

    #[test]
    fn duplicate_in_same_scope_rejected() {
        let mut t = SymbolTable::new();
        t.declare("x", Type::Int, cell(Value::Int(1)), Span::default())
            .unwrap();
        let err = t
            .declare("x", Type::Bool, cell(Value::Bool(true)), Span::default())
            .unwrap_err();
        assert!(err.message.contains("already declared"));
    }

    #[test]
    fn shadowing_in_inner_scope() {
        let mut t = SymbolTable::new();
        t.declare("x", Type::Int, cell(Value::Int(1)), Span::default())
            .unwrap();
        t.push_scope();
        t.declare("x", Type::Bool, cell(Value::Bool(true)), Span::default())
            .unwrap();
        assert_eq!(t.lookup("x").unwrap().ty, Type::Bool);
        t.pop_scope();
        assert_eq!(t.lookup("x").unwrap().ty, Type::Int);
    }

    #[test]
    fn global_scope_never_popped() {
        let mut t = SymbolTable::new();
        t.pop_scope();
        t.pop_scope();
        assert_eq!(t.depth(), 1);
        t.declare("x", Type::Int, cell(Value::Int(1)), Span::default())
            .unwrap();
        assert!(t.lookup("x").is_some());
    }

    #[test]
    fn cells_are_shared() {
        let mut t = SymbolTable::new();
        t.declare("x", Type::Int, cell(Value::Int(1)), Span::default())
            .unwrap();
        let c = t.cell("x").unwrap();
        *c.borrow_mut() = Value::Int(5);
        assert!(matches!(
            *t.lookup("x").unwrap().value.borrow(),
            Value::Int(5)
        ));
    }

    #[test]
    fn function_table_rejects_duplicates() {
        let src = "int f() { return 1; }\nint f() { return 2; }";
        let program = parse(src).unwrap();
        let decls: Vec<&FunctionDecl> = program
            .items
            .iter()
            .filter_map(|i| match i {
                qutes_frontend::Item::Function(f) => Some(f),
                _ => None,
            })
            .collect();
        let err = FunctionTable::build(&decls).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(err[0].message.contains("more than once"));
    }

    #[test]
    fn function_table_lookup() {
        let src = "int f() { return 1; }";
        let program = parse(src).unwrap();
        let decls: Vec<&FunctionDecl> = program
            .items
            .iter()
            .filter_map(|i| match i {
                qutes_frontend::Item::Function(f) => Some(f),
                _ => None,
            })
            .collect();
        let t = FunctionTable::build(&decls).unwrap();
        assert!(t.get("f").is_some());
        assert!(t.get("g").is_none());
    }
}
