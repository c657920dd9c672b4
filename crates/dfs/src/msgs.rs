//! DFS wire protocol: requests and replies exchanged between clients,
//! the NameNode, and DataNodes (always via the network fabric).
//!
//! A block's stored state is one record, [`BlockContent`]: the same value
//! travels in [`AddBlockMeta`] (preload) and [`WriteBlock`] (pipeline write
//! or repair) and is what a DataNode keeps per block. Every reply to a
//! client RPC (locations, create, allocate, read, write) carries the tag
//! of its request.

use accelmr_des::ActorId;
use accelmr_net::NodeId;

use crate::config::BlockId;

/// One block of a file, with its placement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockLoc {
    /// Block identifier.
    pub id: BlockId,
    /// Byte offset of the block within the file.
    pub offset: u64,
    /// Block length (the final block may be short).
    pub len: u64,
    /// Nodes holding live replicas (dead nodes are excluded).
    pub replicas: Vec<NodeId>,
}

/// Client view of a file: metadata + block locations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileView {
    /// File path.
    pub path: String,
    /// Total length, bytes.
    pub len: u64,
    /// Block size used by the file.
    pub block_size: u64,
    /// Content seed (synthetic data is a pure function of `(seed, offset)`).
    pub seed: u64,
    /// Blocks in file order.
    pub blocks: Vec<BlockLoc>,
}

// ---------------- NameNode requests ----------------

/// Instantly installs a fully-written file across the cluster — the state
/// the paper's experiments start from (data already resident in HDFS).
/// Placement is balanced round-robin with `replication` distinct nodes per
/// block.
#[derive(Debug)]
pub struct PreloadFile {
    /// File path.
    pub path: String,
    /// Total length, bytes.
    pub len: u64,
    /// Block size (None = config default).
    pub block_size: Option<u64>,
    /// Replication (None = config default).
    pub replication: Option<usize>,
    /// Content seed.
    pub seed: u64,
    /// Who receives [`PreloadDone`].
    pub reply: ActorId,
}

/// Reply to [`PreloadFile`].
#[derive(Debug, Clone)]
pub struct PreloadDone {
    /// The installed file.
    pub view: FileView,
}

/// Asks for a file's block locations.
#[derive(Debug)]
pub struct GetLocations {
    /// File path.
    pub path: String,
    /// Who receives [`LocationsReply`].
    pub reply: ActorId,
    /// Correlation tag echoed in the reply.
    pub tag: u64,
}

/// Reply to [`GetLocations`].
#[derive(Debug, Clone)]
pub struct LocationsReply {
    /// Correlation tag.
    pub tag: u64,
    /// The file, or `None` if the path does not exist.
    pub view: Option<FileView>,
}

/// Creates an empty file for writing.
#[derive(Debug)]
pub struct CreateFile {
    /// File path.
    pub path: String,
    /// Replication (None = config default).
    pub replication: Option<usize>,
    /// Who receives [`CreateAck`].
    pub reply: ActorId,
    /// Correlation tag echoed in the reply.
    pub tag: u64,
}

/// Reply to [`CreateFile`].
#[derive(Debug, Clone, Copy)]
pub struct CreateAck {
    /// Correlation tag.
    pub tag: u64,
    /// `false` if the path already existed.
    pub ok: bool,
}

/// Allocates the next block of a file being written, returning the
/// replication pipeline the writer must stream through.
#[derive(Debug)]
pub struct AllocBlock {
    /// File path (must have been created).
    pub path: String,
    /// Bytes the writer will put in this block.
    pub len: u64,
    /// Writer's node (the NameNode prefers a local first replica, as HDFS
    /// does).
    pub writer_node: NodeId,
    /// Who receives [`BlockAllocated`].
    pub reply: ActorId,
    /// Correlation tag.
    pub tag: u64,
}

/// Reply to [`AllocBlock`].
#[derive(Debug, Clone)]
pub struct BlockAllocated {
    /// Correlation tag.
    pub tag: u64,
    /// New block id.
    pub block: BlockId,
    /// Replication pipeline in streaming order.
    pub pipeline: Vec<NodeId>,
}

/// DataNode liveness beacon.
#[derive(Debug, Clone, Copy)]
pub struct DnHeartbeat {
    /// Reporting node.
    pub node: NodeId,
}

/// Admits a freshly-spawned DataNode into the cluster (dynamic
/// membership, control plane — sent directly, not over the fabric). The
/// NameNode adds the node to the placement rotation, starts tracking its
/// liveness, and immediately scans for under-replicated blocks the new
/// capacity could host.
#[derive(Debug, Clone, Copy)]
pub struct AddDataNode {
    /// Joining node.
    pub node: NodeId,
    /// Its DataNode actor.
    pub actor: ActorId,
}

/// Tells an existing DataNode a peer joined (control plane). It carries
/// nothing: the DFS registry already resolves the peer. It is still sent
/// because its deliveries are part of the pinned event stream.
#[derive(Debug, Clone, Copy)]
pub struct AddPeer;

/// NameNode → source DataNode: stream a locally-held block through
/// `pipeline` (re-replication of an under-replicated block). Each hop
/// installs the block; the final hop acks `ack_to` with [`WriteAck`]
/// carrying `tag`.
#[derive(Debug, Clone)]
pub struct ReplicateBlock {
    /// Block to copy (the source must hold a replica).
    pub block: BlockId,
    /// Target nodes, in streaming order (never includes the source).
    pub pipeline: Vec<NodeId>,
    /// Who receives the final [`WriteAck`] (the NameNode).
    pub ack_to: ActorId,
    /// Correlation tag (the NameNode's pending-replication key).
    pub tag: u64,
}

/// Source DataNode → NameNode: a [`ReplicateBlock`] could not start (the
/// block is unknown locally, or the first hop is unreachable).
#[derive(Debug, Clone, Copy)]
pub struct ReplicationFailed {
    /// The block from the [`ReplicateBlock`].
    pub block: BlockId,
    /// Correlation tag from the [`ReplicateBlock`].
    pub tag: u64,
}

/// What a DataNode stores for one block: enough to materialize any byte
/// of it. Installed by [`AddBlockMeta`] (preload) or by a landed
/// [`WriteBlock`] (pipeline write or repair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockContent {
    /// Block length.
    pub len: u64,
    /// Content seed of the owning file.
    pub seed: u64,
    /// Absolute offset of the block in its file's content stream.
    pub base_offset: u64,
}

/// Installs block metadata on a DataNode (preload control plane).
#[derive(Debug, Clone, Copy)]
pub struct AddBlockMeta {
    /// Block id.
    pub block: BlockId,
    /// The block's content.
    pub content: BlockContent,
}

// ---------------- DataNode requests ----------------

/// Reads a byte range of one block; the data streams to `reader_node` as a
/// fluid flow and [`RangeData`] arrives at `reader` when the last byte does.
#[derive(Debug)]
pub struct ReadRange {
    /// Block to read.
    pub block: BlockId,
    /// Offset within the block.
    pub offset_in_block: u64,
    /// Bytes to read.
    pub len: u64,
    /// Node where the reader runs (flow destination).
    pub reader_node: NodeId,
    /// Actor receiving [`RangeData`].
    pub reader: ActorId,
    /// Optional per-stream rate cap (the RecordReader feed ceiling).
    pub cap_bytes_per_sec: Option<f64>,
    /// Correlation tag.
    pub tag: u64,
}

/// Delivered to the reader when a [`ReadRange`] flow completes.
#[derive(Debug)]
pub struct RangeData {
    /// Correlation tag.
    pub tag: u64,
    /// Bytes read (length always set; content only in materialized mode).
    pub len: u64,
    /// Materialized content, when the DataNode runs materialized.
    pub bytes: Option<Vec<u8>>,
}

/// Error reply when a [`ReadRange`] referenced an unknown block.
#[derive(Debug, Clone, Copy)]
pub struct ReadError {
    /// Correlation tag.
    pub tag: u64,
}

/// Streams one block from a writer (or a repair source) into the next
/// DataNode of its replication pipeline. Every hop, from a client or
/// between DataNodes, is built by one routine (`datanode::send_next_hop`).
#[derive(Debug)]
pub struct WriteBlock {
    /// Block id (from [`BlockAllocated`] or [`ReplicateBlock`]).
    pub block: BlockId,
    /// The block's content; `content.len` bytes stream in.
    pub content: BlockContent,
    /// Node the bytes come from (writer or upstream DataNode).
    pub from_node: NodeId,
    /// Remaining pipeline after this DataNode.
    pub rest: Vec<NodeId>,
    /// Writer actor to ack when the pipeline finishes.
    pub ack_to: ActorId,
    /// Correlation tag for the ack.
    pub tag: u64,
}

/// Final acknowledgment of a pipeline write.
#[derive(Debug, Clone, Copy)]
pub struct WriteAck {
    /// Correlation tag.
    pub tag: u64,
    /// The written block.
    pub block: BlockId,
}
