//! Modules: collections of functions produced from one translation unit.

use crate::function::Function;

/// A module, corresponding to a single source file after lowering.
#[derive(Clone, Debug, Default)]
pub struct Module {
    /// Name of the module: the source file its functions were lowered
    /// from, and so the file of every known [`crate::SourceLoc`] in them.
    pub name: String,
    functions: Vec<Function>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: &str) -> Module {
        Module {
            name: name.to_string(),
            functions: Vec::new(),
        }
    }

    /// Add a function and return its index.
    pub fn add_function(&mut self, func: Function) -> usize {
        self.functions.push(func);
        self.functions.len() - 1
    }

    /// All functions.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// All functions, mutably.
    pub fn functions_mut(&mut self) -> &mut [Function] {
        &mut self.functions
    }

    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Find a function by name, mutably.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.functions.iter_mut().find(|f| f.name == name)
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Whether the module has no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Total number of live instructions across all functions (a rough code
    /// size metric used by the performance experiment).
    pub fn total_insts(&self) -> usize {
        self.functions.iter().map(|f| f.num_live_insts()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Param;
    use crate::types::Type;

    #[test]
    fn module_management() {
        let mut m = Module::new("test.c");
        assert!(m.is_empty());
        m.add_function(Function::new("f", vec![], Type::Void));
        m.add_function(Function::new(
            "g",
            vec![Param {
                name: "x".into(),
                ty: Type::I32,
            }],
            Type::I32,
        ));
        assert_eq!(m.len(), 2);
        assert!(m.function("f").is_some());
        assert!(m.function("h").is_none());
        assert_eq!(m.function("g").unwrap().params.len(), 1);
        m.function_mut("g").unwrap().name = "g2".to_string();
        assert!(m.function("g2").is_some());
        assert_eq!(m.total_insts(), 0);
    }
}
