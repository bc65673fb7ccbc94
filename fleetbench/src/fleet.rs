//! An in-process fleet built from the crates' public APIs: one learner
//! and its warm followers behind a router, all over real TCP on
//! localhost, plus the operations a learning round performs on it.
//!
//! The learner side is the benchmark's own [`PublisherSync`] adapter
//! over [`DeltaPublisher`]; followers are [`ElasticReplica`]s. The
//! router's periodic sync loop is parked ([`PARKED_SYNC_INTERVAL`]) and
//! propagation is triggered with [`Router::sync_now`], so freshness is
//! measured, not drawn from the timer.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncl_obs::Registry as ObsRegistry;
use ncl_online::daemon::{IncrementReport, IngestOutcome, OnlineConfig, OnlineLearner};
use ncl_online::publish::DeltaPublisher;
use ncl_online::stream::SampleStream;
use ncl_online::Checkpoint;
use ncl_router::backend::Backend;
use ncl_router::replica::ElasticReplica;
use ncl_router::router::{Router, RouterConfig};
use ncl_serve::client::NclClient;
use ncl_serve::error::ServeError;
use ncl_serve::protocol;
use ncl_serve::server::{Server, ServerConfig};
use ncl_serve::sync::ReplicaSync;
use serde_json::Value;

use crate::check;
use crate::trace::Recorder;

/// The router's sync-loop period: long enough that the loop never runs
/// after its two start-up passes, so each propagation is exactly one
/// explicit [`Router::sync_now`]. (The shipped default is 150 ms.)
pub const PARKED_SYNC_INTERVAL: Duration = Duration::from_secs(3600);

/// How long fleet start-up may take before the run fails.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// The learner's replication handler: serves deltas and the full
/// checkpoint from a [`DeltaPublisher`], accepts no writes.
pub struct PublisherSync {
    publisher: Arc<DeltaPublisher>,
}

impl ReplicaSync for PublisherSync {
    fn role(&self) -> &'static str {
        "learner"
    }

    fn health_extra(&self) -> Vec<(&'static str, Value)> {
        vec![("published_version", Value::from(self.publisher.version()))]
    }

    fn fetch_delta(&self, base_version: u64) -> Result<(u64, Vec<u8>), ServeError> {
        self.publisher
            .delta_from(base_version)
            .ok_or_else(|| ServeError::Replication {
                detail: format!("no retained delta from v{base_version}"),
            })
    }

    fn apply_delta(&self, _payload: &[u8]) -> Result<u64, ServeError> {
        Err(read_only())
    }

    fn fetch_checkpoint(&self) -> Result<Vec<u8>, ServeError> {
        Ok(self.publisher.checkpoint_bytes())
    }

    fn apply_checkpoint(&self, _payload: &[u8]) -> Result<u64, ServeError> {
        Err(read_only())
    }
}

fn read_only() -> ServeError {
    ServeError::Replication {
        detail: "the learner's state comes from training".into(),
    }
}

/// What every fleet of a run starts from.
pub struct Bootstrap {
    /// The learner configuration.
    pub config: OnlineConfig,
    /// The pre-trained bootstrap checkpoint (version 1).
    pub checkpoint: Checkpoint,
    /// Its encoding.
    pub bytes: Vec<u8>,
    /// The labelled stream the learner ingests.
    pub stream: SampleStream,
}

/// A follower replica and the server in front of it.
pub struct Follower {
    /// The replication state.
    pub replica: Arc<ElasticReplica>,
    /// Its server.
    pub server: Server,
}

/// A running fleet.
pub struct Fleet {
    /// The learner.
    pub learner: OnlineLearner,
    /// The learner's publication point.
    pub publisher: Arc<DeltaPublisher>,
    /// The learner's server.
    pub learner_server: Server,
    /// Followers, warm ones first, then cold joiners.
    pub followers: Vec<Follower>,
    /// The router in front of all of them.
    pub router: Router,
}

/// The result of one cold join.
pub struct Joined {
    /// Checkpoint fetch through the router → routed and serving.
    pub join: Duration,
    /// The routed checkpoint fetch alone.
    pub fetch: Duration,
}

/// The result of one increment and its propagation.
pub struct Propagated {
    /// Ingest of the threshold-completing event → learner serving the
    /// new version.
    pub increment: Duration,
    /// Increment committed → every follower serving that version.
    pub freshness: Duration,
    /// What the learner reported.
    pub report: IncrementReport,
    /// Ingest time of every event that did not fire the increment.
    pub other_ingests: Vec<Duration>,
    /// `DeltaPublisher::publish` time.
    pub publish: Duration,
    /// Encoded delta size.
    pub delta_bytes: usize,
    /// The one `Router::sync_now` pass.
    pub sync_pass: Duration,
    /// CRC of the published checkpoint.
    pub crc: u32,
}

fn start_follower(
    boot: &Bootstrap,
    payload: &[u8],
    rec: &Recorder,
    parent: u64,
    trace: u64,
) -> Result<Follower, String> {
    let replica = rec
        .span(parent, trace, "ncl_router", "elastic_from_bytes", || {
            ElasticReplica::from_checkpoint_bytes(
                boot.config.clone(),
                payload,
                boot.stream.clone(),
                Duration::ZERO,
                Arc::new(ObsRegistry::new()),
            )
        })
        .map_err(|e| format!("follower start: {e}"))?;
    let replica = Arc::new(replica);
    let sync: Arc<dyn ReplicaSync> = Arc::clone(&replica) as Arc<dyn ReplicaSync>;
    let server = rec
        .span(parent, trace, "ncl_serve", "server_start", || {
            Server::start_with_sync(replica.registry(), ServerConfig::default(), Some(sync))
        })
        .map_err(|e| format!("follower server: {e}"))?;
    Ok(Follower { replica, server })
}

impl Fleet {
    /// Starts a learner resumed from the bootstrap checkpoint and
    /// `warm_followers` followers from its bytes, then a router over
    /// them, and waits for the router's two start-up sync passes.
    ///
    /// # Errors
    ///
    /// Describes the component that failed to start.
    pub fn start(
        boot: &Bootstrap,
        warm_followers: usize,
        rec: &Recorder,
        parent: u64,
        trace: u64,
    ) -> Result<Fleet, String> {
        let learner = rec
            .span(parent, trace, "ncl_online", "resume", || {
                OnlineLearner::resume_from_checkpoint(
                    boot.config.clone(),
                    boot.checkpoint.clone(),
                    "bootstrap",
                )
            })
            .map_err(|e| format!("learner resume: {e}"))?;
        let publisher = Arc::new(DeltaPublisher::with_ring(
            boot.checkpoint.clone(),
            boot.config.delta_ring,
        ));
        let sync: Arc<dyn ReplicaSync> = Arc::new(PublisherSync {
            publisher: Arc::clone(&publisher),
        });
        let learner_server = rec
            .span(parent, trace, "ncl_serve", "server_start", || {
                Server::start_with_sync(learner.registry(), ServerConfig::default(), Some(sync))
            })
            .map_err(|e| format!("learner server: {e}"))?;
        let mut followers = Vec::with_capacity(warm_followers);
        for _ in 0..warm_followers {
            followers.push(start_follower(boot, &boot.bytes, rec, parent, trace)?);
        }
        let mut backends = vec![Arc::new(Backend::new(0, learner_server.local_addr()))];
        for (i, f) in followers.iter().enumerate() {
            backends.push(Arc::new(Backend::new(i + 1, f.server.local_addr())));
        }
        let router = rec
            .span(parent, trace, "ncl_router", "router_start", || {
                Router::start(
                    backends,
                    RouterConfig {
                        sync_interval: PARKED_SYNC_INTERVAL,
                        ..RouterConfig::default()
                    },
                )
            })
            .map_err(|e| format!("router: {e}"))?;
        // `Router::start` runs one pass, and its loop runs a second one
        // immediately; the tick counter advances as a pass begins, so
        // wait for the second pass to be counted and for every backend
        // to report healthy.
        let deadline = Instant::now() + START_TIMEOUT;
        while router.sync_stats().ticks.get() < 2
            || !router.backends().iter().all(|b| b.is_healthy())
        {
            if Instant::now() > deadline {
                return Err("router start-up sync passes did not complete".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Fleet {
            learner,
            publisher,
            learner_server,
            followers,
            router,
        })
    }

    /// The router's address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.router.local_addr()
    }

    /// A cold follower fetches the full checkpoint through the router,
    /// starts from those bytes and joins; done when the router routes to
    /// it at the learner's published version. Checks the joiner holds
    /// the published bytes.
    ///
    /// # Errors
    ///
    /// Describes the failed step or check.
    pub fn cold_join(
        &mut self,
        boot: &Bootstrap,
        rec: &Recorder,
        parent: u64,
        trace: u64,
    ) -> Result<Joined, String> {
        let start = Instant::now();
        let mut client =
            NclClient::connect(self.addr()).map_err(|e| format!("join connect: {e}"))?;
        let payload = rec.span(parent, trace, "ncl_router", "checkpoint_fetch", || {
            fetch_checkpoint(&mut client)
        })?;
        let fetch = start.elapsed();
        let follower = start_follower(boot, &payload, rec, parent, trace)?;
        let addr = follower.server.local_addr();
        let reply = rec
            .span(parent, trace, "ncl_router", "join", || {
                client.join(&addr.to_string())
            })
            .map_err(|e| format!("join op: {e}"))?;
        if reply.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("join refused: {}", reply.to_json()));
        }
        let version = self.publisher.version();
        let routed = self
            .router
            .backends()
            .into_iter()
            .any(|b| b.addr == addr && b.is_healthy() && b.model_version() == version);
        if !routed || follower.replica.registry().version() != version {
            return Err(format!("cold follower {addr} is not routed at v{version}"));
        }
        let join = start.elapsed();
        check::same_bytes(
            "cold follower",
            &follower.replica.checkpoint_bytes(),
            &self.publisher.checkpoint_bytes(),
        )?;
        self.followers.push(follower);
        Ok(Joined { join, fetch })
    }

    /// Ingests the stream until the novel-class increment fires, then
    /// publishes it and propagates it with one sync pass. Checks every
    /// follower serves, and holds the bytes of, the published version.
    ///
    /// # Errors
    ///
    /// Describes the failed step or check.
    pub fn increment_and_propagate(
        &mut self,
        boot: &Bootstrap,
        rec: &Recorder,
        parent: u64,
        trace: u64,
    ) -> Result<Propagated, String> {
        let mut other_ingests = Vec::new();
        let mut fired = None;
        let cursor = self.learner.cursor();
        for event in boot.stream.events_from(cursor) {
            let start = Instant::now();
            let outcome = self
                .learner
                .ingest(event)
                .map_err(|e| format!("ingest of event {}: {e}", event.seq))?;
            let end = Instant::now();
            let ingest = rec.record(parent, trace, "ncl_online", "ingest", start, end);
            if let IngestOutcome::Increment(report) = outcome {
                // The training inside the increment, placed at the start
                // of the ingest that fired it; its duration is the
                // learner's own `train_wall`.
                rec.record(
                    ingest,
                    trace,
                    "ncl_snn",
                    "train",
                    start,
                    start + report.train_wall,
                );
                fired = Some((end - start, report));
                break;
            }
            other_ingests.push(end - start);
        }
        let Some((increment, report)) = fired else {
            return Err("the stream ended without an increment".into());
        };
        let committed = Instant::now();
        if self.learner.registry().version() != report.registry_version {
            return Err("the learner does not serve its new version".into());
        }
        let ckpt = rec.span(parent, trace, "ncl_online", "checkpoint", || {
            self.learner.checkpoint()
        });
        let publish_start = Instant::now();
        let delta_bytes = rec
            .span(parent, trace, "ncl_online", "publish", || {
                self.publisher.publish(ckpt)
            })
            .map_err(|e| format!("publish: {e}"))?;
        let publish = publish_start.elapsed();
        let sync_start = Instant::now();
        rec.span(parent, trace, "ncl_router", "sync_pass", || {
            self.router.sync_now()
        });
        let sync_pass = sync_start.elapsed();
        let version = self.publisher.version();
        if let Some(i) = self
            .followers
            .iter()
            .position(|f| f.replica.registry().version() != version)
        {
            return Err(format!(
                "follower {i} serves v{} after the sync pass, not v{version}",
                self.followers[i].replica.registry().version()
            ));
        }
        let freshness = committed.elapsed();
        let published = self.publisher.checkpoint_bytes();
        for (i, f) in self.followers.iter().enumerate() {
            check::same_bytes(
                &format!("follower {i}"),
                &f.replica.checkpoint_bytes(),
                &published,
            )?;
        }
        Ok(Propagated {
            increment,
            freshness,
            report,
            other_ingests,
            publish,
            delta_bytes,
            sync_pass,
            crc: ncl_online::checkpoint::crc32(&published),
        })
    }

    /// The router's `serving` counters (`failovers`, `requests_failed`).
    ///
    /// # Errors
    ///
    /// Returns the wire error.
    pub fn router_counters(&self) -> Result<(u64, u64), String> {
        let stats = NclClient::connect(self.addr())
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("router stats: {e}"))?;
        let serving = stats.get("serving").cloned().unwrap_or(Value::Null);
        let get = |k: &str| serving.get(k).and_then(Value::as_u64).unwrap_or(0);
        Ok((get("failovers"), get("requests_failed")))
    }

    /// Requests answered and batches run, summed over every replica.
    #[must_use]
    pub fn batching(&self) -> (u64, u64) {
        let mut servers = vec![&self.learner_server];
        servers.extend(self.followers.iter().map(|f| &f.server));
        servers.iter().fold((0, 0), |(ok, batches), s| {
            let snap = s.metrics().snapshot();
            (
                ok + s.metrics().ok_count(),
                batches + snap.get("batches").and_then(Value::as_u64).unwrap_or(0),
            )
        })
    }

    /// Stops the router, then every replica.
    pub fn shutdown(self) {
        self.router.shutdown();
        self.learner_server.shutdown();
        for f in self.followers {
            f.server.shutdown();
        }
    }
}

/// Fetches and hex-decodes a `checkpoint` reply.
///
/// # Errors
///
/// Describes a wire error, an error reply or bad hex.
pub fn fetch_checkpoint(client: &mut NclClient) -> Result<Vec<u8>, String> {
    let reply = client
        .checkpoint()
        .map_err(|e| format!("checkpoint fetch: {e}"))?;
    let hex = reply
        .get("payload")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("checkpoint reply without payload: {:.200}", reply.to_json()))?;
    protocol::from_hex(hex).map_err(|e| format!("checkpoint payload: {e}"))
}
