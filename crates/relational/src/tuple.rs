//! Tuples.
//!
//! A tuple is an ordered, immutable sequence of [`Value`]s laid out
//! according to a [`Schema`]. Its values live in one shared allocation
//! (`Arc<[Value]>`), so cloning a tuple bumps a reference count instead of
//! copying the row: a base relation, every join-index posting over it, the
//! transaction that inserted the row, the `DeltaRelation`/`TaggedRelation`
//! entries that carry it and every copy-on-write copy of a view all point
//! at the same values. Tuples are never mutated in place; an operation
//! that yields a different row (projection, concatenation, a joined row)
//! builds a new one, collecting straight into its allocation.
//!
//! Multiplicity counters (§5.2) and insert/delete tags (§5.3)
//! are *not* part of the tuple itself; they are carried by the containing
//! [`crate::relation::Relation`] / [`crate::tagged::TaggedRelation`], which
//! mirrors the paper's treatment of the count attribute `N` as metadata
//! "that need not be explicitly stored" for base relations.

use std::fmt;
use std::sync::Arc;

use crate::attribute::AttrName;
use crate::error::{RelError, Result};
use crate::schema::Schema;
use crate::value::Value;

/// An ordered, shared sequence of values conforming to some scheme.
///
/// `Hash`, `Eq` and `Ord` are those of the value slice, so a tuple hashes
/// and compares exactly like its `&[Value]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple(Arc<[Value]>);

// A tuple is one fat pointer: the row itself lives behind it.
const _: () = assert!(std::mem::size_of::<Tuple>() == 16);

impl Tuple {
    /// Build a tuple from values.
    pub fn new<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        Tuple(values.into_iter().map(Into::into).collect())
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The values in layout order.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Value at a layout position.
    pub fn at(&self, pos: usize) -> &Value {
        &self.0[pos]
    }

    /// Value of the named attribute under the given scheme
    /// (the paper's `t(A)` notation).
    pub fn get(&self, schema: &Schema, attr: &AttrName) -> Result<&Value> {
        Ok(&self.0[schema.require(attr)?])
    }

    /// Check that the tuple fits the scheme's arity.
    pub fn check_arity(&self, schema: &Schema) -> Result<()> {
        if self.arity() == schema.arity() {
            Ok(())
        } else {
            Err(RelError::ArityMismatch {
                expected: schema.arity(),
                got: self.arity(),
            })
        }
    }

    /// Project the tuple onto positions (precomputed via
    /// [`projection_positions`]).
    pub fn project_positions(&self, positions: &[usize]) -> Tuple {
        Tuple(positions.iter().map(|&p| self.0[p].clone()).collect())
    }

    /// Concatenate two tuples (cross product of tuples).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple(self.0.iter().chain(other.0.iter()).cloned().collect())
    }

    /// This tuple followed by `other`'s values at `positions`: the row a
    /// natural join emits, where `positions` are the right operand's
    /// non-join attributes.
    pub fn concat_positions(&self, other: &Tuple, positions: &[usize]) -> Tuple {
        Tuple(
            self.0
                .iter()
                .cloned()
                .chain(positions.iter().map(|&p| other.0[p].clone()))
                .collect(),
        )
    }
}

impl<V: Into<Value>, const N: usize> From<[V; N]> for Tuple {
    fn from(vs: [V; N]) -> Self {
        Tuple::new(vs)
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(vs: Vec<Value>) -> Self {
        Tuple(vs.into())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Precompute the source positions for projecting `from` onto `onto`.
///
/// Every attribute of `onto` must exist in `from`; evaluating a projection
/// then reduces to an index gather per tuple (hot path of §5.2).
pub fn projection_positions(from: &Schema, onto: &Schema) -> Result<Vec<usize>> {
    onto.attrs().iter().map(|a| from.require(a)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::new(["A", "B", "C"]).unwrap()
    }

    #[test]
    fn build_and_access() {
        let t = Tuple::from([1, 2, 3]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.at(1), &Value::Int(2));
        assert_eq!(t.get(&abc(), &"C".into()).unwrap(), &Value::Int(3));
        assert!(t.get(&abc(), &"Z".into()).is_err());
    }

    #[test]
    fn arity_check() {
        let t = Tuple::from([1, 2]);
        assert!(t.check_arity(&abc()).is_err());
        assert!(t.check_arity(&Schema::new(["A", "B"]).unwrap()).is_ok());
    }

    #[test]
    fn projection_via_positions() {
        let s = abc();
        let onto = s.project(&["C".into(), "A".into()]).unwrap();
        let pos = projection_positions(&s, &onto).unwrap();
        assert_eq!(pos, vec![2, 0]);
        let t = Tuple::from([10, 20, 30]);
        assert_eq!(t.project_positions(&pos), Tuple::from([30, 10]));
    }

    #[test]
    fn projection_positions_rejects_unknown() {
        let onto = Schema::new(["Z"]).unwrap();
        assert!(projection_positions(&abc(), &onto).is_err());
    }

    #[test]
    fn concat() {
        let t = Tuple::from([1, 2]).concat(&Tuple::from([3]));
        assert_eq!(t, Tuple::from([1, 2, 3]));
        let j = Tuple::from([1, 2]).concat_positions(&Tuple::from([7, 8, 9]), &[2, 0]);
        assert_eq!(j, Tuple::from([1, 2, 9, 7]));
    }

    #[test]
    fn clones_share_one_allocation() {
        let t = Tuple::from([1, 2, 3]);
        let c = t.clone();
        assert_eq!(t.values().as_ptr(), c.values().as_ptr());
        let v = Tuple::from(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(v, t);
        assert_ne!(v.values().as_ptr(), t.values().as_ptr());
    }

    #[test]
    fn hashes_like_its_value_slice() {
        use std::hash::{BuildHasher, RandomState};
        let t = Tuple::from([4, 5]);
        let s = RandomState::new();
        assert_eq!(s.hash_one(&t), s.hash_one(t.values()));
        assert_eq!(s.hash_one(&t), s.hash_one(t.values().to_vec()));
    }

    #[test]
    fn mixed_values_display() {
        let t = Tuple::new(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(t.to_string(), "(1, x)");
    }
}
