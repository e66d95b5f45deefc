//! Serializable system specifications: a human-writable JSON format for
//! databases and transaction systems, so workloads can be audited without
//! writing Rust.
//!
//! ```json
//! {
//!   "entities": [ {"name": "x", "site": 0}, {"name": "y", "site": 1} ],
//!   "transactions": [
//!     { "name": "T1",
//!       "ops": ["L x", "L y", "U x", "U y"],
//!       "arcs": [[0,1],[1,2],[2,3]] }
//!   ]
//! }
//! ```
//!
//! `ops` entries are `"L <entity>"` / `"U <entity>"`; `arcs` lists
//! precedence pairs by op index. If `arcs` is omitted the ops form a
//! total order (chained).
//!
//! The JSON is coded by hand over `serde_json::Value` (the spec
//! implements `FromJson` and `ToJson`; no derive). Decoding ignores
//! unknown keys, reads a missing or `null` `arcs` as `None`, requires
//! every other field, and refuses a `site` or arc index that is not an
//! integer in `u32`'s range. Encoding writes the fields in the order
//! above and omits `arcs` when it is `None`.

use crate::database::Database;
use crate::error::ModelError;
use crate::ids::NodeId;
use crate::op::Op;
use crate::system::TransactionSystem;
use crate::txn::Transaction;
use serde_json::{Error, FromJson, ToJson, Value};
use std::fmt;

/// One entity declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntitySpec {
    /// Unique entity name.
    pub name: String,
    /// Site index (sites are created densely up to the max index used).
    pub site: u32,
}

/// One transaction declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransactionSpec {
    /// Transaction name.
    pub name: String,
    /// Operations: `"L <entity>"` or `"U <entity>"`.
    pub ops: Vec<String>,
    /// Precedence arcs as `[from, to]` op-index pairs. `None` ⇒ the ops
    /// are totally ordered as written.
    pub arcs: Option<Vec<(u32, u32)>>,
}

/// A whole system specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemSpec {
    /// Entity declarations.
    pub entities: Vec<EntitySpec>,
    /// Transaction declarations.
    pub transactions: Vec<TransactionSpec>,
}

/// Errors while interpreting a [`SystemSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// An op string was not `"L <name>"` / `"U <name>"`.
    BadOp {
        /// The transaction.
        txn: String,
        /// The offending op string.
        op: String,
    },
    /// An op referenced an undeclared entity.
    UnknownEntity {
        /// The transaction.
        txn: String,
        /// The entity name.
        entity: String,
    },
    /// The assembled transaction violated the model rules.
    Model(ModelError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::BadOp { txn, op } => {
                write!(
                    f,
                    "transaction {txn:?}: malformed op {op:?} (want \"L x\" / \"U x\")"
                )
            }
            SpecError::UnknownEntity { txn, entity } => {
                write!(f, "transaction {txn:?}: unknown entity {entity:?}")
            }
            SpecError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ModelError> for SpecError {
    fn from(e: ModelError) -> Self {
        SpecError::Model(e)
    }
}

impl SystemSpec {
    /// Builds the database and transaction system the spec describes.
    pub fn build(&self) -> Result<TransactionSystem, SpecError> {
        let mut b = Database::builder();
        let max_site = self.entities.iter().map(|e| e.site).max().unwrap_or(0);
        for _ in 0..=max_site {
            b.add_site();
        }
        for e in &self.entities {
            b.add_entity(e.name.clone(), crate::ids::SiteId(e.site));
        }
        let db = b.build();

        let mut txns = Vec::with_capacity(self.transactions.len());
        for spec in &self.transactions {
            let mut tb = Transaction::builder(spec.name.clone());
            let mut nodes = Vec::with_capacity(spec.ops.len());
            for op_str in &spec.ops {
                let (kind, entity_name) =
                    op_str.split_once(' ').ok_or_else(|| SpecError::BadOp {
                        txn: spec.name.clone(),
                        op: op_str.clone(),
                    })?;
                let entity = db.entity_by_name(entity_name.trim()).ok_or_else(|| {
                    SpecError::UnknownEntity {
                        txn: spec.name.clone(),
                        entity: entity_name.trim().to_string(),
                    }
                })?;
                let op = match kind.trim() {
                    "L" | "l" | "lock" => Op::lock(entity),
                    "U" | "u" | "unlock" => Op::unlock(entity),
                    _ => {
                        return Err(SpecError::BadOp {
                            txn: spec.name.clone(),
                            op: op_str.clone(),
                        })
                    }
                };
                nodes.push(tb.op(op));
            }
            match &spec.arcs {
                Some(arcs) => {
                    for &(a, bx) in arcs {
                        tb.arc(NodeId(a), NodeId(bx));
                    }
                }
                None => {
                    tb.chain(&nodes);
                }
            }
            txns.push(tb.build(&db)?);
        }
        Ok(TransactionSystem::new(db, txns)?)
    }

    /// Round-trips a system back into a spec (ops in node order, explicit
    /// arcs).
    pub fn from_system(sys: &TransactionSystem) -> Self {
        let entities = sys
            .db()
            .entities()
            .map(|e| EntitySpec {
                name: sys.db().name_of(e).to_string(),
                site: sys.db().site_of(e).0,
            })
            .collect();
        let transactions = sys
            .txns()
            .iter()
            .map(|t| {
                let ops = t
                    .nodes()
                    .map(|n| {
                        let op = t.op(n);
                        format!(
                            "{} {}",
                            if op.is_lock() { "L" } else { "U" },
                            sys.db().name_of(op.entity)
                        )
                    })
                    .collect();
                let mut arcs = Vec::new();
                for a in t.nodes() {
                    for &b in t.successors(a) {
                        arcs.push((a.0, b.0));
                    }
                }
                TransactionSpec {
                    name: t.name().to_string(),
                    ops,
                    arcs: Some(arcs),
                }
            })
            .collect();
        SystemSpec {
            entities,
            transactions,
        }
    }
}

impl ToJson for SystemSpec {
    fn to_json(&self) -> Value {
        let entity = |e: &EntitySpec| {
            Value::Obj(vec![
                ("name".into(), Value::Str(e.name.clone())),
                ("site".into(), Value::U64(e.site.into())),
            ])
        };
        Value::Obj(vec![
            (
                "entities".into(),
                Value::Arr(self.entities.iter().map(entity).collect()),
            ),
            (
                "transactions".into(),
                Value::Arr(self.transactions.iter().map(txn_to_json).collect()),
            ),
        ])
    }
}

fn txn_to_json(t: &TransactionSpec) -> Value {
    let mut fields = vec![
        ("name".into(), Value::Str(t.name.clone())),
        (
            "ops".into(),
            Value::Arr(t.ops.iter().cloned().map(Value::Str).collect()),
        ),
    ];
    if let Some(arcs) = &t.arcs {
        let arc =
            |&(a, b): &(u32, u32)| Value::Arr(vec![Value::U64(a.into()), Value::U64(b.into())]);
        fields.push(("arcs".into(), Value::Arr(arcs.iter().map(arc).collect())));
    }
    Value::Obj(fields)
}

impl FromJson for SystemSpec {
    fn from_json(v: &Value) -> Result<Self, Error> {
        Ok(SystemSpec {
            entities: list(v.field("entities")?, |e| {
                Ok(EntitySpec {
                    name: string(e.field("name")?)?,
                    site: e.field("site")?.as_uint()?,
                })
            })?,
            transactions: list(v.field("transactions")?, txn_from_json)?,
        })
    }
}

fn txn_from_json(t: &Value) -> Result<TransactionSpec, Error> {
    let name = string(t.field("name")?)?;
    let ops = list(t.field("ops")?, string)?;
    let arcs = t.get("arcs").filter(|arcs| !arcs.is_null());
    let arcs = arcs.map(|arcs| {
        list(arcs, |arc| match arc.as_arr() {
            Some([a, b]) => Ok((a.as_uint()?, b.as_uint()?)),
            _ => Err(Error::msg("an arc is a two-element array")),
        })
    });
    Ok(TransactionSpec {
        name,
        ops,
        arcs: arcs.transpose()?,
    })
}

fn list<T>(v: &Value, item: impl Fn(&Value) -> Result<T, Error>) -> Result<Vec<T>, Error> {
    let items = v.as_arr().ok_or_else(|| Error::msg("expected an array"))?;
    items.iter().map(item).collect()
}

fn string(v: &Value) -> Result<String, Error> {
    v.as_str()
        .map(str::to_owned)
        .ok_or_else(|| Error::msg(format!("expected a string, got {v:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{EntityId, TxnId};

    fn demo_spec() -> SystemSpec {
        SystemSpec {
            entities: vec![
                EntitySpec {
                    name: "x".into(),
                    site: 0,
                },
                EntitySpec {
                    name: "y".into(),
                    site: 1,
                },
            ],
            transactions: vec![
                TransactionSpec {
                    name: "T1".into(),
                    ops: vec!["L x".into(), "L y".into(), "U x".into(), "U y".into()],
                    arcs: None,
                },
                TransactionSpec {
                    name: "T2".into(),
                    ops: vec!["L x".into(), "U x".into(), "L y".into(), "U y".into()],
                    arcs: Some(vec![(0, 1), (1, 2), (2, 3)]),
                },
            ],
        }
    }

    #[test]
    fn build_from_spec() {
        let sys = demo_spec().build().unwrap();
        assert_eq!(sys.len(), 2);
        assert_eq!(sys.db().entity_count(), 2);
        assert_eq!(sys.db().site_count(), 2);
        let t1 = sys.txn(TxnId(0));
        assert!(t1.precedes(NodeId(0), NodeId(3)));
        assert_eq!(t1.entities(), &[EntityId(0), EntityId(1)]);
    }

    #[test]
    fn roundtrip_through_spec() {
        let sys = demo_spec().build().unwrap();
        let spec2 = SystemSpec::from_system(&sys);
        let sys2 = spec2.build().unwrap();
        assert_eq!(sys2.len(), sys.len());
        for (a, b) in sys.txns().iter().zip(sys2.txns()) {
            assert_eq!(format!("{a}"), format!("{b}"));
            // Same precedence relation.
            for x in a.nodes() {
                for y in a.nodes() {
                    assert_eq!(a.precedes(x, y), b.precedes(x, y));
                }
            }
        }
    }

    #[test]
    fn bad_op_rejected() {
        let mut s = demo_spec();
        s.transactions[0].ops[0] = "Q x".into();
        assert!(matches!(s.build().unwrap_err(), SpecError::BadOp { .. }));
        let mut s2 = demo_spec();
        s2.transactions[0].ops[0] = "Lx".into();
        assert!(matches!(s2.build().unwrap_err(), SpecError::BadOp { .. }));
    }

    #[test]
    fn unknown_entity_rejected() {
        let mut s = demo_spec();
        s.transactions[0].ops[0] = "L zz".into();
        assert!(matches!(
            s.build().unwrap_err(),
            SpecError::UnknownEntity { .. }
        ));
    }

    #[test]
    fn model_violations_propagate() {
        let mut s = demo_spec();
        s.transactions[0].ops = vec!["L x".into()]; // no unlock
        assert!(matches!(s.build().unwrap_err(), SpecError::Model(_)));
    }

    #[test]
    fn json_roundtrip() {
        let s = demo_spec();
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: SystemSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    /// The encoding, pinned byte for byte: fields in declaration order,
    /// `arcs` omitted when `None` (T1) and written when `Some` (T2).
    #[test]
    fn json_encoding_is_pinned() {
        let s = demo_spec();
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            r#"{"entities":[{"name":"x","site":0},{"name":"y","site":1}],"transactions":[{"name":"T1","ops":["L x","L y","U x","U y"]},{"name":"T2","ops":["L x","U x","L y","U y"],"arcs":[[0,1],[1,2],[2,3]]}]}"#
        );
        let pretty = r#"{
  "entities": [
    {
      "name": "x",
      "site": 0
    },
    {
      "name": "y",
      "site": 1
    }
  ],
  "transactions": [
    {
      "name": "T1",
      "ops": [
        "L x",
        "L y",
        "U x",
        "U y"
      ]
    },
    {
      "name": "T2",
      "ops": [
        "L x",
        "U x",
        "L y",
        "U y"
      ],
      "arcs": [
        [
          0,
          1
        ],
        [
          1,
          2
        ],
        [
          2,
          3
        ]
      ]
    }
  ]
}"#;
        assert_eq!(serde_json::to_string_pretty(&s).unwrap(), pretty);
    }

    /// What the decoder refuses and what it lets through.
    #[test]
    fn json_decoding_accepts_and_refuses_as_pinned() {
        let refused = [
            r#"[]"#,
            r#"{"transactions":[]}"#,
            r#"{"entities":[]}"#,
            r#"{"entities":[{"site":0}],"transactions":[]}"#,
            r#"{"entities":[{"name":"x"}],"transactions":[]}"#,
            r#"{"entities":[{"name":"x","site":-1}],"transactions":[]}"#,
            r#"{"entities":[{"name":"x","site":4294967296}],"transactions":[]}"#,
            r#"{"entities":[],"transactions":[{"ops":[]}]}"#,
            r#"{"entities":[],"transactions":[{"name":"T"}]}"#,
            r#"{"entities":[],"transactions":[{"name":"T","ops":[1]}]}"#,
            r#"{"entities":[],"transactions":[{"name":"T","ops":[],"arcs":[[0]]}]}"#,
            r#"{"entities":[],"transactions":[{"name":"T","ops":[],"arcs":[[0,1,2]]}]}"#,
            r#"{"entities":[],"transactions":[{"name":"T","ops":[],"arcs":[{"from":0}]}]}"#,
        ];
        for text in refused {
            assert!(serde_json::from_str::<SystemSpec>(text).is_err(), "{text}");
        }
        let one = |arcs| SystemSpec {
            entities: vec![EntitySpec {
                name: "x".into(),
                site: u32::MAX,
            }],
            transactions: vec![TransactionSpec {
                name: "T".into(),
                ops: vec![],
                arcs,
            }],
        };
        let accepted = [
            (
                r#"{"entities":[{"name":"x","site":4294967295}],"transactions":[{"name":"T","ops":[],"arcs":null}]}"#,
                one(None),
            ),
            (
                r#"{"entities":[{"name":"x","site":4294967295,"k":1}],"transactions":[{"name":"T","ops":[],"arcs":[[0,1]],"k":[]}],"k":{}}"#,
                one(Some(vec![(0, 1)])),
            ),
        ];
        for (text, want) in accepted {
            assert_eq!(serde_json::from_str::<SystemSpec>(text), Ok(want), "{text}");
        }
    }
}
