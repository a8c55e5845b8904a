//! Mesh geometry: coordinates, node identifiers and router port directions.
//!
//! The paper evaluates an 8×8 2D mesh of 64 nodes, each node hosting one
//! five-port router (four cardinal ports plus a local port toward the
//! processing element). Everything here generalizes to arbitrary `w×h`
//! meshes so tests can use small 2×2 and 4×4 networks.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One of the five ports of a canonical 2D-mesh router.
///
/// The numeric encoding (`North = 0` … `Local = 4`) is load-bearing: the
/// Routing Computation unit emits the direction as a **3-bit field**, so a
/// single-bit fault can turn a legal direction into the illegal encodings
/// 5, 6 or 7 — exactly the "invalid RC output direction" scenario of
/// invariance 2 in Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Direction {
    /// Toward the router at `(x, y+1)`.
    North = 0,
    /// Toward the router at `(x+1, y)`.
    East = 1,
    /// Toward the router at `(x, y-1)`.
    South = 2,
    /// Toward the router at `(x-1, y)`.
    West = 3,
    /// Toward the local processing element (injection/ejection).
    Local = 4,
}

impl Direction {
    /// All five directions in encoding order.
    pub const ALL: [Direction; 5] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
        Direction::Local,
    ];

    /// Number of ports of a full (interior) router.
    pub const COUNT: usize = 5;

    /// Decodes a 3-bit wire value into a direction.
    ///
    /// Returns `None` for the illegal encodings `5..=7` — the caller (router
    /// logic as well as checkers) must decide what a hardware decoder would
    /// do with such a value.
    #[inline]
    pub fn from_bits(bits: u64) -> Option<Direction> {
        match bits {
            0 => Some(Direction::North),
            1 => Some(Direction::East),
            2 => Some(Direction::South),
            3 => Some(Direction::West),
            4 => Some(Direction::Local),
            _ => None,
        }
    }

    /// The 3-bit wire encoding of this direction.
    #[inline]
    pub fn bits(self) -> u64 {
        self as u64
    }

    /// Index usable for per-port arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The direction a flit *arrives from* when it was sent *toward* `self`.
    ///
    /// Sending North means arriving at the neighbour's South port, and so on.
    /// `Local.opposite()` is `Local`: a flit injected by the local PE arrives
    /// on the local input port.
    #[inline]
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
            Direction::Local => Direction::Local,
        }
    }

    /// True for the four mesh-facing directions (everything except `Local`).
    #[inline]
    pub fn is_cardinal(self) -> bool {
        !matches!(self, Direction::Local)
    }

    /// True if the direction moves along the X dimension (East/West).
    #[inline]
    pub fn is_x(self) -> bool {
        matches!(self, Direction::East | Direction::West)
    }

    /// True if the direction moves along the Y dimension (North/South).
    #[inline]
    pub fn is_y(self) -> bool {
        matches!(self, Direction::North | Direction::South)
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::East => "E",
            Direction::South => "S",
            Direction::West => "W",
            Direction::Local => "L",
        };
        f.write_str(s)
    }
}

/// A position in the mesh, `x` growing eastward and `y` growing northward.
///
/// The origin `(0, 0)` is the south-west (bottom-left) corner, matching the
/// Cartesian convention of Figure 2(a) in the paper.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Coord {
    /// Column (0-based, west to east).
    pub x: u8,
    /// Row (0-based, south to north).
    pub y: u8,
}

impl Coord {
    /// Creates a coordinate.
    #[inline]
    pub fn new(x: u8, y: u8) -> Coord {
        Coord { x, y }
    }

    /// Manhattan distance to another coordinate — the minimal hop count.
    #[inline]
    pub fn manhattan(self, other: Coord) -> u32 {
        (self.x.abs_diff(other.x) as u32) + (self.y.abs_diff(other.y) as u32)
    }

    /// The neighbouring coordinate in `dir`, if it stays within a `w×h` mesh.
    #[inline]
    pub fn step(self, dir: Direction, w: u8, h: u8) -> Option<Coord> {
        match dir {
            Direction::North if self.y + 1 < h => Some(Coord::new(self.x, self.y + 1)),
            Direction::East if self.x + 1 < w => Some(Coord::new(self.x + 1, self.y)),
            Direction::South if self.y > 0 => Some(Coord::new(self.x, self.y - 1)),
            Direction::West if self.x > 0 => Some(Coord::new(self.x - 1, self.y)),
            _ => None,
        }
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// Dense node identifier: `id = y * width + x`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The raw index, usable into per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A `width × height` 2D mesh: the topology substrate of the evaluation.
///
/// # Example
///
/// ```
/// use noc_types::geometry::{Coord, Direction, Mesh};
///
/// let mesh = Mesh::new(4, 4);
/// assert_eq!(mesh.len(), 16);
/// // The south-west corner has no South or West neighbour.
/// let corner = mesh.node(Coord::new(0, 0));
/// assert!(mesh.neighbor(corner, Direction::South).is_none());
/// assert!(mesh.neighbor(corner, Direction::East).is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mesh {
    width: u8,
    height: u8,
}

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the mesh exceeds `u16` nodes.
    pub fn new(width: u8, height: u8) -> Mesh {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        assert!(
            (width as u32) * (height as u32) <= u16::MAX as u32,
            "mesh too large for NodeId"
        );
        Mesh { width, height }
    }

    /// Mesh width (columns).
    #[inline]
    pub fn width(self) -> u8 {
        self.width
    }

    /// Mesh height (rows).
    #[inline]
    pub fn height(self) -> u8 {
        self.height
    }

    /// Total number of nodes.
    #[inline]
    pub fn len(self) -> usize {
        self.width as usize * self.height as usize
    }

    /// True only for a degenerate mesh — kept for `len`/`is_empty` symmetry.
    #[inline]
    pub fn is_empty(self) -> bool {
        false
    }

    /// The node at a coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate lies outside the mesh.
    #[inline]
    pub fn node(self, c: Coord) -> NodeId {
        assert!(c.x < self.width && c.y < self.height, "coord out of mesh");
        NodeId(c.y as u16 * self.width as u16 + c.x as u16)
    }

    /// The coordinate of a node.
    #[inline]
    pub fn coord(self, n: NodeId) -> Coord {
        Coord::new(
            (n.0 % self.width as u16) as u8,
            (n.0 / self.width as u16) as u8,
        )
    }

    /// The neighbour of `n` in direction `dir`, or `None` at a mesh edge
    /// (and always `None` for `Local`).
    #[inline]
    pub fn neighbor(self, n: NodeId, dir: Direction) -> Option<NodeId> {
        if !dir.is_cardinal() {
            return None;
        }
        self.coord(n)
            .step(dir, self.width, self.height)
            .map(|c| self.node(c))
    }

    /// Whether the router at `n` has a live link in direction `dir`.
    ///
    /// `Local` is always live; cardinal directions are live unless they point
    /// off the mesh edge. Edge and corner routers therefore have 4 and 3 live
    /// ports — which is why the paper counts 11,808 fault sites in an 8×8
    /// mesh rather than `64 ×` the interior-router count.
    #[inline]
    pub fn port_live(self, n: NodeId, dir: Direction) -> bool {
        !dir.is_cardinal() || self.neighbor(n, dir).is_some()
    }

    /// Iterates over all node ids.
    pub fn nodes(self) -> impl Iterator<Item = NodeId> {
        (0..self.len() as u16).map(NodeId)
    }

    /// Manhattan distance between two nodes.
    #[inline]
    pub fn distance(self, a: NodeId, b: NodeId) -> u32 {
        self.coord(a).manhattan(self.coord(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_roundtrip() {
        for d in Direction::ALL {
            assert_eq!(Direction::from_bits(d.bits()), Some(d));
        }
        for illegal in 5..8 {
            assert_eq!(Direction::from_bits(illegal), None);
        }
    }

    #[test]
    fn direction_opposites() {
        assert_eq!(Direction::North.opposite(), Direction::South);
        assert_eq!(Direction::East.opposite(), Direction::West);
        assert_eq!(Direction::Local.opposite(), Direction::Local);
        for d in Direction::ALL {
            if d.is_cardinal() {
                assert_eq!(d.opposite().opposite(), d);
                assert_ne!(d.opposite(), d);
            }
        }
    }

    #[test]
    fn direction_axes() {
        assert!(Direction::East.is_x() && Direction::West.is_x());
        assert!(Direction::North.is_y() && Direction::South.is_y());
        assert!(!Direction::Local.is_x() && !Direction::Local.is_y());
    }

    #[test]
    fn mesh_node_coord_roundtrip() {
        let mesh = Mesh::new(8, 8);
        for n in mesh.nodes() {
            assert_eq!(mesh.node(mesh.coord(n)), n);
        }
    }

    #[test]
    fn mesh_neighbors() {
        let mesh = Mesh::new(4, 4);
        let c = mesh.node(Coord::new(1, 1));
        assert_eq!(
            mesh.neighbor(c, Direction::North),
            Some(mesh.node(Coord::new(1, 2)))
        );
        assert_eq!(
            mesh.neighbor(c, Direction::East),
            Some(mesh.node(Coord::new(2, 1)))
        );
        assert_eq!(
            mesh.neighbor(c, Direction::South),
            Some(mesh.node(Coord::new(1, 0)))
        );
        assert_eq!(
            mesh.neighbor(c, Direction::West),
            Some(mesh.node(Coord::new(0, 1)))
        );
        assert_eq!(mesh.neighbor(c, Direction::Local), None);
    }

    #[test]
    fn mesh_edges_have_dead_ports() {
        let mesh = Mesh::new(8, 8);
        let sw = mesh.node(Coord::new(0, 0));
        assert!(!mesh.port_live(sw, Direction::South));
        assert!(!mesh.port_live(sw, Direction::West));
        assert!(mesh.port_live(sw, Direction::North));
        assert!(mesh.port_live(sw, Direction::East));
        assert!(mesh.port_live(sw, Direction::Local));

        let ne = mesh.node(Coord::new(7, 7));
        assert!(!mesh.port_live(ne, Direction::North));
        assert!(!mesh.port_live(ne, Direction::East));
    }

    #[test]
    fn live_port_census_8x8() {
        // 4 corners with 3 ports, 24 edges with 4, 36 interior with 5,
        // plus the local port everywhere.
        let mesh = Mesh::new(8, 8);
        let mut cardinal_live = 0;
        for n in mesh.nodes() {
            for d in Direction::ALL {
                if d.is_cardinal() && mesh.port_live(n, d) {
                    cardinal_live += 1;
                }
            }
        }
        // Each internal mesh link contributes 2 live cardinal ports:
        // 2 * (7*8 + 8*7) = 224.
        assert_eq!(cardinal_live, 224);
    }

    #[test]
    fn manhattan_distance() {
        let mesh = Mesh::new(8, 8);
        let a = mesh.node(Coord::new(0, 0));
        let b = mesh.node(Coord::new(7, 7));
        assert_eq!(mesh.distance(a, b), 14);
        assert_eq!(mesh.distance(a, a), 0);
    }

    #[test]
    #[should_panic(expected = "coord out of mesh")]
    fn node_out_of_mesh_panics() {
        Mesh::new(2, 2).node(Coord::new(2, 0));
    }
}
