//! Binary codec for the relational substrate.
//!
//! Every persistent structure — values, tuples, schemas, counted relations
//! (§5.2 multiplicity counters included), signed deltas, transactions,
//! whole databases and view-defining expressions — encodes to a flat
//! little-endian byte string and decodes back without loss. Encoding is
//! **deterministic**: hash-ordered containers are sorted first, so equal
//! states produce identical bytes (which makes checksums and tests
//! meaningful).
//!
//! Decoding is **total**: arbitrary input bytes either produce a valid
//! structure or a typed [`StorageError`] — never a panic and never an
//! unbounded allocation. Length prefixes are checked against the bytes
//! actually remaining before any buffer is reserved, and recursive
//! expression trees are depth-limited.
//!
//! # Wire shapes
//!
//! ```text
//! Value        ::= 0x00 i64 | 0x01 str
//! str          ::= u32 len, len × utf-8 byte
//! Tuple        ::= u32 arity, arity × Value
//! Schema       ::= u32 n, n × str
//! Relation     ::= Schema, u64 distinct, distinct × (Tuple, u64 count)
//! Delta        ::= Schema, u64 distinct, distinct × (Tuple, i64 count)
//! Transaction  ::= u32 nrel, nrel × (str, u32 ni, ni × Tuple,
//!                                          u32 nd, nd × Tuple)
//! Database     ::= u32 nrel, nrel × (str, Relation)
//! CompOp       ::= u8 ∈ {0 '=', 1 '<', 2 '>', 3 '≤', 4 '≥'}
//! Rhs          ::= 0x00 i64 | 0x01 str i64
//! Atom         ::= str CompOp Rhs
//! Conjunction  ::= u32 n, n × Atom
//! Condition    ::= u32 m, m × Conjunction
//! SpjExpr      ::= u32 p, p × str, Condition, (0x00 | 0x01 u32 k, k × str)
//! Expr         ::= 0x00 str | 0x01 Expr Condition | 0x02 Expr u32 k, k × str
//!                | 0x03 Expr Expr | 0x04 Expr Expr | 0x05 Expr Expr
//! ```
//!
//! All integers are little-endian; counts of zero are rejected on decode
//! (the in-memory containers never hold them).

use ivm_relational::prelude::*;

use crate::error::{Result, StorageError};

/// Maximum nesting depth accepted when decoding an [`Expr`] tree. Corrupt
/// length prefixes could otherwise drive the recursive decoder into a stack
/// overflow, which is a panic — and decoding must never panic. The bound is
/// deliberately conservative: it must hold on a 2 MiB test-thread stack in
/// unoptimized builds, and real view expressions are a handful of nodes.
pub const MAX_EXPR_DEPTH: usize = 64;

/// A bounds-checked cursor over an encoded byte string.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current offset, for error reporting.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StorageError::Corrupt(format!(
                "need {n} bytes at offset {} but only {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StorageError::Corrupt(format!("invalid utf-8 string at {}", self.pos)))
    }

    /// Validate a declared element count against the bytes remaining:
    /// every element occupies at least `min_elem_bytes`, so a count the
    /// buffer cannot possibly hold is corruption — detected *before* any
    /// allocation is sized from it.
    pub fn check_count(&self, count: usize, min_elem_bytes: usize) -> Result<()> {
        if count
            .checked_mul(min_elem_bytes.max(1))
            .map(|need| need > self.remaining())
            .unwrap_or(true)
        {
            return Err(StorageError::Corrupt(format!(
                "declared count {count} cannot fit in {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Lossless binary encoding/decoding.
pub trait Codec: Sized {
    /// Append this value's encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decode one value starting at the reader's position.
    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self>;

    /// Encode into a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decode from a complete buffer; trailing bytes are corruption.
    fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let v = Self::decode_from(&mut r)?;
        if r.remaining() > 0 {
            return Err(StorageError::Corrupt(format!(
                "{} trailing bytes after a complete value",
                r.remaining()
            )));
        }
        Ok(v)
    }
}

const VALUE_INT: u8 = 0x00;
const VALUE_STR: u8 = 0x01;

impl Codec for Value {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(i) => {
                out.push(VALUE_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(VALUE_STR);
                put_str(out, s);
            }
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.u8()? {
            VALUE_INT => Ok(Value::Int(r.i64()?)),
            VALUE_STR => Ok(Value::str(r.str()?)),
            tag => Err(StorageError::Corrupt(format!("bad value tag {tag:#04x}"))),
        }
    }
}

impl Codec for Tuple {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.arity() as u32).to_le_bytes());
        for v in self.values() {
            v.encode_into(out);
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let arity = r.u32()? as usize;
        r.check_count(arity, 2)?; // tag byte + at least one payload byte

        // Decode straight into the tuple's one allocation: the iterator
        // has an exact length, so collecting it allocates once. The first
        // error stops further reads (the rest are placeholders) and is
        // returned instead of the tuple.
        let mut failed = None;
        let tuple = Tuple::new((0..arity).map(|_| {
            if failed.is_none() {
                match Value::decode_from(r) {
                    Ok(v) => return v,
                    Err(e) => failed = Some(e),
                }
            }
            Value::Int(0)
        }));
        match failed {
            None => Ok(tuple),
            Some(e) => Err(e),
        }
    }
}

impl Codec for Schema {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.arity() as u32).to_le_bytes());
        for attr in self.attrs() {
            put_str(out, attr.as_str());
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let n = r.u32()? as usize;
        r.check_count(n, 4)?;
        let mut attrs = Vec::with_capacity(n);
        for _ in 0..n {
            attrs.push(r.str()?);
        }
        Ok(Schema::new(attrs)?)
    }
}

impl Codec for Relation {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.schema().encode_into(out);
        // Sorting references orders exactly as `sorted()` would, without
        // copying a tuple.
        let mut rows: Vec<(&Tuple, u64)> = self.iter().collect();
        rows.sort_unstable();
        out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
        for (tuple, count) in rows {
            tuple.encode_into(out);
            out.extend_from_slice(&count.to_le_bytes());
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let schema = Schema::decode_from(r)?;
        let n = r.u64()? as usize;
        r.check_count(n, 12)?; // empty tuple (4) + count (8)
        let mut rel = Relation::with_capacity(schema, n);
        for _ in 0..n {
            let tuple = Tuple::decode_from(r)?;
            let count = r.u64()?;
            if count == 0 {
                return Err(StorageError::Corrupt(format!(
                    "zero multiplicity for tuple {tuple}"
                )));
            }
            rel.insert(tuple, count)?;
        }
        Ok(rel)
    }
}

impl Codec for DeltaRelation {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.schema().encode_into(out);
        let mut rows: Vec<(&Tuple, i64)> = self.iter().collect();
        rows.sort_unstable();
        out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
        for (tuple, count) in rows {
            tuple.encode_into(out);
            out.extend_from_slice(&count.to_le_bytes());
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let schema = Schema::decode_from(r)?;
        let n = r.u64()? as usize;
        r.check_count(n, 12)?;
        let mut delta = DeltaRelation::empty(schema);
        for _ in 0..n {
            let tuple = Tuple::decode_from(r)?;
            let count = r.i64()?;
            if count == 0 {
                return Err(StorageError::Corrupt(format!(
                    "zero signed count for tuple {tuple}"
                )));
            }
            tuple.check_arity(delta.schema())?;
            delta.add(tuple, count);
        }
        Ok(delta)
    }
}

impl Codec for Transaction {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let touched = self.touched();
        out.extend_from_slice(&(touched.len() as u32).to_le_bytes());
        for relation in touched {
            put_str(out, relation);
            let mut inserts: Vec<&Tuple> = self.inserted(relation).collect();
            let mut deletes: Vec<&Tuple> = self.deleted(relation).collect();
            inserts.sort();
            deletes.sort();
            out.extend_from_slice(&(inserts.len() as u32).to_le_bytes());
            for t in inserts {
                t.encode_into(out);
            }
            out.extend_from_slice(&(deletes.len() as u32).to_le_bytes());
            for t in deletes {
                t.encode_into(out);
            }
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let nrel = r.u32()? as usize;
        r.check_count(nrel, 12)?;
        let mut txn = Transaction::new();
        for _ in 0..nrel {
            let relation = r.str()?;
            let ni = r.u32()? as usize;
            r.check_count(ni, 4)?;
            for _ in 0..ni {
                txn.insert(&relation, Tuple::decode_from(r)?)?;
            }
            let nd = r.u32()? as usize;
            r.check_count(nd, 4)?;
            for _ in 0..nd {
                txn.delete(&relation, Tuple::decode_from(r)?)?;
            }
        }
        Ok(txn)
    }
}

impl Codec for Database {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let names: Vec<&str> = self.relation_names().collect();
        out.extend_from_slice(&(names.len() as u32).to_le_bytes());
        for name in names {
            put_str(out, name);
            self.relation(name)
                .expect("relation_names yields existing relations")
                .encode_into(out);
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let nrel = r.u32()? as usize;
        r.check_count(nrel, 16)?;
        let mut db = Database::new();
        for _ in 0..nrel {
            let name = r.str()?;
            let rel = Relation::decode_from(r)?;
            db.adopt(name, rel)?;
        }
        Ok(db)
    }
}

impl Codec for CompOp {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(match self {
            CompOp::Eq => 0,
            CompOp::Lt => 1,
            CompOp::Gt => 2,
            CompOp::Le => 3,
            CompOp::Ge => 4,
        });
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(CompOp::Eq),
            1 => Ok(CompOp::Lt),
            2 => Ok(CompOp::Gt),
            3 => Ok(CompOp::Le),
            4 => Ok(CompOp::Ge),
            tag => Err(StorageError::Corrupt(format!(
                "bad comparison operator tag {tag:#04x}"
            ))),
        }
    }
}

const RHS_CONST: u8 = 0x00;
const RHS_ATTR_PLUS: u8 = 0x01;

impl Codec for Rhs {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Rhs::Const(c) => {
                out.push(RHS_CONST);
                out.extend_from_slice(&c.to_le_bytes());
            }
            Rhs::AttrPlus(attr, c) => {
                out.push(RHS_ATTR_PLUS);
                put_str(out, attr.as_str());
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.u8()? {
            RHS_CONST => Ok(Rhs::Const(r.i64()?)),
            RHS_ATTR_PLUS => {
                let attr = AttrName::new(r.str()?);
                Ok(Rhs::AttrPlus(attr, r.i64()?))
            }
            tag => Err(StorageError::Corrupt(format!("bad rhs tag {tag:#04x}"))),
        }
    }
}

impl Codec for Atom {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_str(out, self.left.as_str());
        self.op.encode_into(out);
        self.rhs.encode_into(out);
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let left = AttrName::new(r.str()?);
        let op = CompOp::decode_from(r)?;
        let rhs = Rhs::decode_from(r)?;
        Ok(Atom { left, op, rhs })
    }
}

impl Codec for Conjunction {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.atoms.len() as u32).to_le_bytes());
        for atom in &self.atoms {
            atom.encode_into(out);
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let n = r.u32()? as usize;
        r.check_count(n, 14)?; // str(4) + op(1) + rhs(9)
        let mut atoms = Vec::with_capacity(n);
        for _ in 0..n {
            atoms.push(Atom::decode_from(r)?);
        }
        Ok(Conjunction { atoms })
    }
}

impl Codec for Condition {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.disjuncts.len() as u32).to_le_bytes());
        for conj in &self.disjuncts {
            conj.encode_into(out);
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let m = r.u32()? as usize;
        r.check_count(m, 4)?;
        let mut disjuncts = Vec::with_capacity(m);
        for _ in 0..m {
            disjuncts.push(Conjunction::decode_from(r)?);
        }
        Ok(Condition { disjuncts })
    }
}

const PROJECTION_NONE: u8 = 0x00;
const PROJECTION_SOME: u8 = 0x01;

impl Codec for SpjExpr {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.relations.len() as u32).to_le_bytes());
        for relation in &self.relations {
            put_str(out, relation);
        }
        self.condition.encode_into(out);
        match &self.projection {
            None => out.push(PROJECTION_NONE),
            Some(attrs) => {
                out.push(PROJECTION_SOME);
                out.extend_from_slice(&(attrs.len() as u32).to_le_bytes());
                for attr in attrs {
                    put_str(out, attr.as_str());
                }
            }
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let p = r.u32()? as usize;
        r.check_count(p, 4)?;
        let mut relations = Vec::with_capacity(p);
        for _ in 0..p {
            relations.push(r.str()?);
        }
        let condition = Condition::decode_from(r)?;
        let projection = match r.u8()? {
            PROJECTION_NONE => None,
            PROJECTION_SOME => {
                let k = r.u32()? as usize;
                r.check_count(k, 4)?;
                let mut attrs = Vec::with_capacity(k);
                for _ in 0..k {
                    attrs.push(AttrName::new(r.str()?));
                }
                Some(attrs)
            }
            tag => {
                return Err(StorageError::Corrupt(format!(
                    "bad projection tag {tag:#04x}"
                )))
            }
        };
        Ok(SpjExpr {
            relations,
            condition,
            projection,
        })
    }
}

const EXPR_BASE: u8 = 0x00;
const EXPR_SELECT: u8 = 0x01;
const EXPR_PROJECT: u8 = 0x02;
const EXPR_JOIN: u8 = 0x03;
const EXPR_UNION: u8 = 0x04;
const EXPR_DIFFERENCE: u8 = 0x05;

fn decode_expr(r: &mut ByteReader<'_>, depth: usize) -> Result<Expr> {
    if depth > MAX_EXPR_DEPTH {
        return Err(StorageError::Corrupt(format!(
            "expression tree deeper than {MAX_EXPR_DEPTH}"
        )));
    }
    match r.u8()? {
        EXPR_BASE => Ok(Expr::base(r.str()?)),
        EXPR_SELECT => {
            let input = decode_expr(r, depth + 1)?;
            let cond = Condition::decode_from(r)?;
            Ok(input.select(cond))
        }
        EXPR_PROJECT => {
            let input = decode_expr(r, depth + 1)?;
            let k = r.u32()? as usize;
            r.check_count(k, 4)?;
            let mut attrs = Vec::with_capacity(k);
            for _ in 0..k {
                attrs.push(AttrName::new(r.str()?));
            }
            Ok(input.project(attrs))
        }
        EXPR_JOIN => Ok(decode_expr(r, depth + 1)?.join(decode_expr(r, depth + 1)?)),
        EXPR_UNION => Ok(decode_expr(r, depth + 1)?.union(decode_expr(r, depth + 1)?)),
        EXPR_DIFFERENCE => Ok(decode_expr(r, depth + 1)?.difference(decode_expr(r, depth + 1)?)),
        tag => Err(StorageError::Corrupt(format!(
            "bad expression tag {tag:#04x}"
        ))),
    }
}

impl Codec for Expr {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Expr::Base(name) => {
                out.push(EXPR_BASE);
                put_str(out, name);
            }
            Expr::Select { input, cond } => {
                out.push(EXPR_SELECT);
                input.encode_into(out);
                cond.encode_into(out);
            }
            Expr::Project { input, attrs } => {
                out.push(EXPR_PROJECT);
                input.encode_into(out);
                out.extend_from_slice(&(attrs.len() as u32).to_le_bytes());
                for attr in attrs {
                    put_str(out, attr.as_str());
                }
            }
            Expr::Join(l, r) => {
                out.push(EXPR_JOIN);
                l.encode_into(out);
                r.encode_into(out);
            }
            Expr::Union(l, r) => {
                out.push(EXPR_UNION);
                l.encode_into(out);
                r.encode_into(out);
            }
            Expr::Difference(l, r) => {
                out.push(EXPR_DIFFERENCE);
                l.encode_into(out);
                r.encode_into(out);
            }
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        decode_expr(r, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.encode();
        let back = T::decode(&bytes).expect("decode");
        assert_eq!(&back, v);
        // Determinism: encoding the decoded value reproduces the bytes.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(&Value::Int(-42));
        roundtrip(&Value::str("héllo"));
        roundtrip(&Tuple::new([Value::Int(1), Value::str("x")]));
        roundtrip(&Schema::new(["A", "B", "C"]).unwrap());
        roundtrip(&CompOp::Le);
        roundtrip(&Rhs::AttrPlus("B".into(), -3));
        roundtrip(&Atom::lt_const("A", 10));
        roundtrip(&Condition::always_true());
        roundtrip(&Condition::always_false());
    }

    #[test]
    fn relation_roundtrip_preserves_counts() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let mut rel = Relation::empty(schema);
        rel.insert(Tuple::from([1, 2]), 3).unwrap();
        rel.insert(Tuple::from([4, 5]), 1).unwrap();
        let back = Relation::decode(&rel.encode()).unwrap();
        assert!(back.same_contents(&rel));
        assert_eq!(back.count(&Tuple::from([1, 2])), 3);
    }

    #[test]
    fn expr_roundtrip() {
        let e = Expr::base("R")
            .select(Atom::gt_const("A", 2))
            .join(Expr::base("S"))
            .union(Expr::base("T").project(["A"]))
            .difference(Expr::base("U"));
        roundtrip(&e);
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = Value::Int(7).encode();
        bytes.push(0xFF);
        assert!(matches!(
            Value::decode(&bytes),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn tuple_decode_reports_the_first_bad_value() {
        let mut bytes = Tuple::from([1, 2, 3]).encode();
        let second = 4 + Value::Int(1).encode().len();
        bytes[second] = 0x7F;
        match Tuple::decode(&bytes) {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains("bad value tag 0x7f"), "{msg}"),
            other => panic!("expected a corrupt-tag error, got {other:?}"),
        }
        // A tuple cut short inside its last value fails too.
        let whole = Tuple::from([1, 2, 3]).encode();
        assert!(Tuple::decode(&whole[..whole.len() - 1]).is_err());
    }

    #[test]
    fn decode_rejects_implausible_counts() {
        // A schema claiming u32::MAX attributes in a 10-byte buffer.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 6]);
        assert!(matches!(
            Schema::decode(&bytes),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn decode_bounds_expression_depth() {
        // A run of SELECT tags with no terminal: recursion must stop with
        // a typed error, not a stack overflow.
        let bytes = vec![EXPR_SELECT; MAX_EXPR_DEPTH + 8];
        assert!(matches!(
            Expr::decode(&bytes),
            Err(StorageError::Corrupt(_))
        ));
    }
}
