//! The distribution map — RAztec's `Epetra_Map`.

use rsparse::BlockRowPartition;

/// Describes how `num_global` contiguous indices are laid out across the
/// ranks of a communicator. Every RAztec object (vector, matrix) carries a
/// map, and operations check map compatibility — the Epetra discipline.
#[derive(Debug, Clone, PartialEq)]
pub struct Map {
    partition: BlockRowPartition,
    rank: usize,
}

impl Map {
    /// Even distribution of `num_global` indices over `comm`.
    pub fn new(num_global: usize, comm: &rcomm::Communicator) -> Self {
        Map { partition: BlockRowPartition::even(num_global, comm.size()), rank: comm.rank() }
    }

    /// Wrap an existing partition.
    pub fn from_partition(partition: BlockRowPartition, rank: usize) -> Self {
        Map { partition, rank }
    }

    /// Global number of indices.
    pub fn num_global(&self) -> usize {
        self.partition.global_rows()
    }

    /// Indices owned by this rank.
    pub fn num_my(&self) -> usize {
        self.partition.local_rows(self.rank)
    }

    /// First global index owned here.
    pub fn min_my_gid(&self) -> usize {
        self.partition.start_row(self.rank)
    }

    /// Convert a local index to its global id.
    pub fn gid(&self, lid: usize) -> usize {
        debug_assert!(lid < self.num_my());
        self.min_my_gid() + lid
    }

    /// Convert a global id to a local index if owned here.
    pub fn lid(&self, gid: usize) -> Option<usize> {
        let r = self.partition.range(self.rank);
        r.contains(&gid).then(|| gid - r.start)
    }

    /// This rank.
    pub fn my_rank(&self) -> usize {
        self.rank
    }

    /// The underlying block-row partition.
    pub fn partition(&self) -> &BlockRowPartition {
        &self.partition
    }

    /// Two maps are compatible when they describe the same distribution.
    pub fn same_as(&self, other: &Map) -> bool {
        self == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcomm::Universe;

    #[test]
    fn map_describes_even_layout() {
        let out = Universe::run(3, |comm| {
            let map = Map::new(10, comm);
            (map.num_global(), map.num_my(), map.min_my_gid())
        });
        assert_eq!(out, vec![(10, 4, 0), (10, 3, 4), (10, 3, 7)]);
    }

    #[test]
    fn gid_lid_round_trip() {
        let out = Universe::run(2, |comm| {
            let map = Map::new(7, comm);
            let mut ok = true;
            for lid in 0..map.num_my() {
                ok &= map.lid(map.gid(lid)) == Some(lid);
            }
            // A gid owned by the other rank resolves to None.
            let foreign = if comm.rank() == 0 { 6 } else { 0 };
            ok && map.lid(foreign).is_none()
        });
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn compatibility_check() {
        let out = Universe::run(2, |comm| {
            let a = Map::new(8, comm);
            let b = Map::new(8, comm);
            let c = Map::new(9, comm);
            a.same_as(&b) && !a.same_as(&c)
        });
        assert_eq!(out, vec![true, true]);
    }
}
