use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a static basic block within a workload.
///
/// Basic block ids index into the workload's [`BlockTable`] and into the
/// basic block vectors collected by `bp-signature`.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct BasicBlockId(pub u32);

impl BasicBlockId {
    /// Returns the id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BasicBlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Static description of a basic block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BasicBlock {
    /// Identifier of the block.
    pub id: BasicBlockId,
    /// Human-readable name, e.g. `"cg.matvec.inner"`.
    pub name: String,
    /// Number of instructions a single execution of the block retires
    /// (including its memory operations).
    pub instructions: u32,
}

/// The static basic block table of a workload.
///
/// The table defines the dimensionality of basic block vectors: BBVs have one
/// entry per block in this table.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockTable {
    blocks: Vec<BasicBlock>,
}

impl BlockTable {
    /// Creates an empty block table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new basic block and returns its id.
    pub fn add(&mut self, name: impl Into<String>, instructions: u32) -> BasicBlockId {
        let id = BasicBlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock { id, name: name.into(), instructions });
        id
    }

    /// Number of static basic blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` when no blocks have been registered.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Looks up a block by id.
    pub fn get(&self, id: BasicBlockId) -> Option<&BasicBlock> {
        self.blocks.get(id.index())
    }

    /// Iterates over all blocks in id order.
    pub fn iter(&self) -> impl Iterator<Item = &BasicBlock> {
        self.blocks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assigns_sequential_ids() {
        let mut table = BlockTable::new();
        let a = table.add("a", 10);
        let b = table.add("b", 20);
        assert_eq!(a, BasicBlockId(0));
        assert_eq!(b, BasicBlockId(1));
        assert_eq!(table.len(), 2);
        assert_eq!(table.get(a).unwrap().instructions, 10);
        assert_eq!(table.get(b).unwrap().name, "b");
    }

    #[test]
    fn get_out_of_range_is_none() {
        let table = BlockTable::new();
        assert!(table.is_empty());
        assert!(table.get(BasicBlockId(3)).is_none());
    }

    #[test]
    fn display_format() {
        assert_eq!(BasicBlockId(7).to_string(), "bb7");
    }
}
