//! Error type for the relational substrate.

use std::fmt;

use crate::attribute::AttrName;

/// Errors raised by schema, algebra, transaction and database operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelError {
    /// An attribute was mentioned that the scheme does not contain.
    UnknownAttribute {
        /// The offending attribute.
        attr: AttrName,
        /// The scheme it was looked up in, rendered for diagnostics.
        scheme: String,
    },
    /// A scheme declared the same attribute twice.
    DuplicateAttribute(AttrName),
    /// Two operand schemes were required to be disjoint (cross product, §4
    /// normal form) but share attributes.
    SchemesNotDisjoint(Vec<AttrName>),
    /// Two operand schemes were required to be identical (union, difference)
    /// but differ.
    SchemeMismatch {
        /// Left scheme rendered for diagnostics.
        left: String,
        /// Right scheme rendered for diagnostics.
        right: String,
    },
    /// A tuple's arity does not match its scheme.
    ArityMismatch {
        /// Number of attributes in the scheme.
        expected: usize,
        /// Number of values in the tuple.
        got: usize,
    },
    /// A named base relation does not exist in the database.
    UnknownRelation(String),
    /// A relation with this name already exists in the database.
    DuplicateRelation(String),
    /// §3 requires `r`, `i_r`, `d_r` to be mutually disjoint: the inserted
    /// tuple is already present in the relation.
    InsertExists(String),
    /// §3 requires deleted tuples to be present in the relation.
    DeleteMissing(String),
    /// Applying a delta drove a tuple's multiplicity counter negative (§5.2
    /// counters must stay non-negative; this indicates an inconsistent
    /// delta).
    NegativeCount(String),
    /// A §5.2 counter product (`t(N) = u(N) * v(N)`) or a counter
    /// conversion exceeded the machine integer range. Wrapping silently
    /// would corrupt every downstream multiplicity, so the operation is
    /// refused instead.
    CounterOverflow(String),
    /// A join index was requested over an invalid key (empty, or with a
    /// column position outside the relation's scheme).
    InvalidIndexKey(String),
    /// A predicate compared or did arithmetic on incompatible values (e.g.
    /// `x < y + c` over a string attribute).
    TypeError(String),
    /// Text could not be parsed (see `crate::parser`).
    Parse(String),
    /// A projection under a join drops this attribute, which the other
    /// join operand has, so the tree has no sum-of-SPJ-terms form (see
    /// `crate::expr::Expr::signed_terms`).
    ProjectionUnderJoin(AttrName),
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::UnknownAttribute { attr, scheme } => {
                write!(f, "attribute {attr} not in scheme {scheme}")
            }
            RelError::DuplicateAttribute(a) => write!(f, "duplicate attribute {a} in scheme"),
            RelError::SchemesNotDisjoint(shared) => {
                write!(f, "schemes must be disjoint but share: ")?;
                for (i, a) in shared.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                Ok(())
            }
            RelError::SchemeMismatch { left, right } => {
                write!(f, "scheme mismatch: {left} vs {right}")
            }
            RelError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "tuple arity {got} does not match scheme arity {expected}"
                )
            }
            RelError::UnknownRelation(name) => write!(f, "unknown base relation {name}"),
            RelError::DuplicateRelation(name) => write!(f, "base relation {name} already exists"),
            RelError::InsertExists(msg) => {
                write!(
                    f,
                    "inserted tuple already present (violates §3 disjointness): {msg}"
                )
            }
            RelError::DeleteMissing(msg) => {
                write!(
                    f,
                    "deleted tuple not present (violates §3 disjointness): {msg}"
                )
            }
            RelError::NegativeCount(msg) => {
                write!(f, "multiplicity counter went negative: {msg}")
            }
            RelError::CounterOverflow(msg) => {
                write!(f, "multiplicity counter overflow: {msg}")
            }
            RelError::InvalidIndexKey(msg) => write!(f, "invalid index key: {msg}"),
            RelError::TypeError(msg) => write!(f, "type error: {msg}"),
            RelError::Parse(msg) => write!(f, "parse error: {msg}"),
            RelError::ProjectionUnderJoin(a) => write!(
                f,
                "a projection under a join drops attribute {a}, which the other operand has; \
                 register the projection as its own view and join that view instead"
            ),
        }
    }
}

impl std::error::Error for RelError {}

/// Convenience result alias for the relational substrate.
pub type Result<T> = std::result::Result<T, RelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = RelError::UnknownAttribute {
            attr: "A".into(),
            scheme: "{B, C}".into(),
        };
        assert!(e.to_string().contains('A'));
        assert!(e.to_string().contains("{B, C}"));

        let e = RelError::SchemesNotDisjoint(vec!["B".into(), "C".into()]);
        let s = e.to_string();
        assert!(s.contains("B, C"), "{s}");

        let e = RelError::ArityMismatch {
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains('2') && e.to_string().contains('3'));

        let e = RelError::CounterOverflow(format!("{} * 2 exceeds u64", u64::MAX));
        assert!(e.to_string().contains("overflow"), "{e}");
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(RelError::UnknownRelation("r".into()));
        assert!(e.to_string().contains('r'));
    }
}
