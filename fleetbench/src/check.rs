//! Correctness checks. Every check failure is a failed operation and
//! fails the run.

use std::collections::{BTreeMap, HashMap};

use serde_json::Value;

use crate::load::Phase;

/// The logits every pool input must produce, per model version,
/// precomputed with `Network::forward` on the model that version
/// serves.
#[derive(Debug, Default)]
pub struct Expected {
    by_version: BTreeMap<u64, Vec<Vec<f32>>>,
}

impl Expected {
    /// Records the logits version `version` must answer with.
    pub fn insert(&mut self, version: u64, logits: Vec<Vec<f32>>) {
        self.by_version.insert(version, logits);
    }

    /// The reference logits of the oldest known version.
    #[must_use]
    pub fn oldest(&self) -> &[Vec<f32>] {
        self.by_version.values().next().map_or(&[], Vec::as_slice)
    }
}

/// The outcome of checking one phase's replies.
#[derive(Debug, Default)]
pub struct Verified {
    /// Requests answered correctly.
    pub ok: u64,
    /// Requests unanswered or answered wrongly.
    pub failed: u64,
    /// Latency from due time to reply, µs, of every correct reply.
    pub latencies_us: Vec<f64>,
    /// Description of each wrong reply (capped).
    pub errors: Vec<String>,
    /// Id and arrival time of every correct reply.
    pub answered: Vec<(u64, std::time::Instant)>,
}

/// Checks one predict reply line against the expected logits. Returns
/// the reply's id and model version.
///
/// # Errors
///
/// Describes the first mismatch: an error reply, an unknown id, a
/// version without known logits, or logits/prediction that differ
/// from the precomputed ones in any bit.
pub fn check_reply(
    line: &str,
    pool_of: &HashMap<u64, usize>,
    expected: &Expected,
) -> Result<(u64, u64), String> {
    let reply: Value = serde_json::from_str(line).map_err(|e| format!("unparseable reply: {e}"))?;
    if reply.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("error reply: {line:.200}"));
    }
    let id = reply
        .get("id")
        .and_then(Value::as_u64)
        .ok_or("reply without id")?;
    let pool = *pool_of
        .get(&id)
        .ok_or_else(|| format!("reply for unknown id {id}"))?;
    let version = reply
        .get("model_version")
        .and_then(Value::as_u64)
        .ok_or("reply without model_version")?;
    let want = expected
        .by_version
        .get(&version)
        .ok_or_else(|| format!("id {id}: no reference logits for model v{version}"))?
        .get(pool)
        .ok_or_else(|| format!("id {id}: pool index {pool} out of range"))?;
    let got: Vec<f32> = reply
        .get("logits")
        .and_then(Value::as_array)
        .ok_or("reply without logits")?
        .iter()
        .map(|v| v.as_f64().map_or(f32::NAN, |x| x as f32))
        .collect();
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same {
        return Err(format!(
            "id {id} (pool {pool}, v{version}): logits {got:?} differ from reference {want:?}"
        ));
    }
    let argmax = ncl_tensor::ops::argmax(want).unwrap_or(0) as u64;
    let prediction = reply.get("prediction").and_then(Value::as_u64);
    if prediction != Some(argmax) {
        return Err(format!(
            "id {id}: prediction {prediction:?} is not the argmax {argmax} of the reference"
        ));
    }
    Ok((id, version))
}

/// Checks every reply of a phase: each must match the reference logits
/// of the version that served it, and versions must never decrease
/// along a connection. Unanswered requests count as failed.
#[must_use]
pub fn verify_phase(phase: &Phase, expected: &Expected) -> Verified {
    const MAX_ERRORS: usize = 8;
    let pool_of: HashMap<u64, usize> = phase.sent.iter().map(|s| (s.id, s.pool)).collect();
    let due_of: HashMap<u64, std::time::Instant> =
        phase.sent.iter().map(|s| (s.id, s.due)).collect();
    let mut out = Verified::default();
    let mut answered = std::collections::HashSet::new();
    let record_error = |out: &mut Verified, e: String| {
        if out.errors.len() < MAX_ERRORS {
            out.errors.push(e);
        }
    };
    for connection in &phase.received {
        let mut last_version = 0u64;
        for reply in connection {
            match check_reply(&reply.line, &pool_of, expected) {
                Ok((id, version)) => {
                    if version < last_version {
                        record_error(
                            &mut out,
                            format!(
                                "id {id}: model v{version} after v{last_version} on one connection"
                            ),
                        );
                        continue;
                    }
                    last_version = version;
                    if !answered.insert(id) {
                        record_error(&mut out, format!("id {id} answered twice"));
                        continue;
                    }
                    out.ok += 1;
                    out.answered.push((id, reply.at));
                    if let Some(due) = due_of.get(&id) {
                        out.latencies_us
                            .push(reply.at.saturating_duration_since(*due).as_secs_f64() * 1e6);
                    }
                }
                Err(e) => record_error(&mut out, e),
            }
        }
    }
    out.failed = phase.attempted.saturating_sub(out.ok);
    out
}

/// Checks that a follower holds exactly the learner's published bytes.
///
/// # Errors
///
/// Names the follower and the first differing byte.
pub fn same_bytes(what: &str, follower: &[u8], published: &[u8]) -> Result<(), String> {
    if follower == published {
        return Ok(());
    }
    let first = follower
        .iter()
        .zip(published)
        .position(|(a, b)| a != b)
        .unwrap_or(follower.len().min(published.len()));
    Err(format!(
        "{what}: checkpoint diverged from the published one ({} vs {} bytes, first difference at byte {first})",
        follower.len(),
        published.len()
    ))
}

/// Records the CRC each round published and checks it matches the
/// first round's: the increment is deterministic, so every round must
/// publish the same checkpoint.
#[derive(Debug, Default)]
pub struct SameCrc {
    first: Option<u32>,
}

impl SameCrc {
    /// Checks round `round`'s published CRC.
    ///
    /// # Errors
    ///
    /// Names the round and both CRCs when they differ.
    pub fn check(&mut self, round: usize, crc: u32) -> Result<(), String> {
        match self.first {
            None => {
                self.first = Some(crc);
                Ok(())
            }
            Some(first) if first == crc => Ok(()),
            Some(first) => Err(format!(
                "round {round} published checkpoint crc {crc:08x}, round 0 published {first:08x}"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::*;
    use crate::load::{Received, Sent};

    fn reply(id: u64, version: u64, logits: &[f32]) -> String {
        let prediction = if logits[0] >= logits[1] { 0 } else { 1 };
        ncl_serve::protocol::predict_response(Some(id), prediction, logits, version)
    }

    fn phase(replies: &[String]) -> Phase {
        let now = Instant::now();
        Phase {
            attempted: 3,
            sent: (0..3)
                .map(|id| Sent {
                    id,
                    pool: id as usize % 2,
                    due: now,
                    sent: now,
                })
                .collect(),
            received: vec![replies
                .iter()
                .map(|line| Received {
                    at: now + Duration::from_micros(250),
                    line: line.clone(),
                })
                .collect()],
            ..Phase::default()
        }
    }

    fn expected() -> Expected {
        let mut e = Expected::default();
        e.insert(1, vec![vec![0.25, -1.5], vec![-0.125, 0.375]]);
        e.insert(2, vec![vec![0.5, 0.75], vec![1.0, -2.0]]);
        e
    }

    #[test]
    fn accepts_exact_replies_and_measures_from_due_time() {
        let p = phase(&[
            reply(0, 1, &[0.25, -1.5]),
            reply(1, 1, &[-0.125, 0.375]),
            reply(2, 2, &[0.5, 0.75]),
        ]);
        let v = verify_phase(&p, &expected());
        assert_eq!((v.ok, v.failed), (3, 0), "{:?}", v.errors);
        assert!(v.latencies_us.iter().all(|&l| (l - 250.0).abs() < 1e-6));
    }

    #[test]
    fn rejects_a_corrupted_reply() {
        let mut corrupted = reply(1, 1, &[-0.125, 0.375]);
        corrupted = corrupted.replace("0.375", "0.376");
        assert!(corrupted.contains("0.376"), "{corrupted}");
        let p = phase(&[
            reply(0, 1, &[0.25, -1.5]),
            corrupted,
            reply(2, 2, &[0.5, 0.75]),
        ]);
        let v = verify_phase(&p, &expected());
        assert_eq!((v.ok, v.failed), (2, 1));
        assert!(v.errors[0].contains("differ"), "{:?}", v.errors);
    }

    #[test]
    fn rejects_missing_replies_unknown_versions_and_regressions() {
        let missing = verify_phase(&phase(&[reply(0, 1, &[0.25, -1.5])]), &expected());
        assert_eq!((missing.ok, missing.failed), (1, 2));

        let unknown = verify_phase(&phase(&[reply(0, 7, &[0.25, -1.5])]), &expected());
        assert!(unknown.errors[0].contains("no reference logits"));

        let regress = verify_phase(
            &phase(&[reply(2, 2, &[0.5, 0.75]), reply(0, 1, &[0.25, -1.5])]),
            &expected(),
        );
        assert_eq!(regress.ok, 1);
        assert!(
            regress.errors[0].contains("after v2"),
            "{:?}",
            regress.errors
        );
    }

    #[test]
    fn rejects_a_diverged_follower_and_a_changed_crc() {
        let published = vec![1u8, 2, 3, 4];
        assert!(same_bytes("f", &published, &published).is_ok());
        let err = same_bytes("follower 2", &[1, 2, 9, 4], &published).unwrap_err();
        assert!(
            err.contains("follower 2") && err.contains("byte 2"),
            "{err}"
        );
        assert!(same_bytes("f", &[1, 2, 3], &published).is_err());

        let mut crc = SameCrc::default();
        assert!(crc.check(0, 0xAB).is_ok());
        assert!(crc.check(1, 0xAB).is_ok());
        assert!(crc.check(2, 0xAC).is_err());
    }
}
