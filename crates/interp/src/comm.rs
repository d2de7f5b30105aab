//! Communicator bookkeeping.

use crate::error::{MpiError, MpiResult};
#[cfg(test)]
use home_trace::COMM_WORLD;
use home_trace::{CommId, Rank};

/// One communicator: an ordered list of member world ranks; a process's
/// rank *within* the communicator is its position in this list.
#[derive(Debug, Clone)]
pub(crate) struct CommInfo {
    /// World ranks, in communicator-rank order.
    pub members: Vec<Rank>,
}

impl CommInfo {
    /// Size of the communicator.
    pub(crate) fn size(&self) -> usize {
        self.members.len()
    }
}

/// The table of live communicators in a [`crate::World`].
#[derive(Debug)]
pub(crate) struct CommTable {
    comms: Vec<CommInfo>,
}

impl CommTable {
    /// Create a table containing only `MPI_COMM_WORLD` over `n` processes.
    pub(crate) fn new_world(n: usize) -> Self {
        CommTable {
            comms: vec![CommInfo {
                members: (0..n as u32).map(Rank).collect(),
            }],
        }
    }

    /// Look up a communicator.
    pub(crate) fn get(&self, comm: CommId) -> MpiResult<&CommInfo> {
        self.comms.get(comm.index()).ok_or(MpiError::InvalidComm)
    }

    /// Size of `comm`.
    pub(crate) fn size(&self, comm: CommId) -> MpiResult<usize> {
        Ok(self.get(comm)?.size())
    }

    /// Translate a communicator-relative rank to a world rank.
    pub(crate) fn world_rank(&self, comm: CommId, crank: u32) -> MpiResult<Rank> {
        let info = self.get(comm)?;
        info.members
            .get(crank as usize)
            .copied()
            .ok_or(MpiError::InvalidRank {
                rank: crank as i32,
                comm_size: info.size(),
            })
    }

    /// Translate a world rank to its communicator-relative rank, if it is a
    /// member.
    pub(crate) fn comm_rank(&self, comm: CommId, world: Rank) -> MpiResult<Option<u32>> {
        let info = self.get(comm)?;
        Ok(info
            .members
            .iter()
            .position(|&m| m == world)
            .map(|p| p as u32))
    }

    /// Register a new communicator, returning its id.
    pub(crate) fn add(&mut self, members: Vec<Rank>) -> CommId {
        let id = CommId(self.comms.len() as u32);
        self.comms.push(CommInfo { members });
        id
    }

    /// Duplicate `comm` (same members, fresh id).
    pub(crate) fn dup(&mut self, comm: CommId) -> MpiResult<CommId> {
        let members = self.get(comm)?.members.clone();
        Ok(self.add(members))
    }

    /// Perform the group computation of `MPI_Comm_split`: every member of
    /// `comm` supplies `(color, key)` (indexed by communicator rank); each
    /// distinct non-negative color becomes one new communicator, members
    /// ordered by `(key, old rank)`. Returns, per old communicator rank,
    /// the new communicator id (`None` for `MPI_UNDEFINED`, i.e. negative
    /// color).
    pub(crate) fn split(
        &mut self,
        comm: CommId,
        colors_keys: &[(i32, i32)],
    ) -> MpiResult<Vec<Option<CommId>>> {
        let info = self.get(comm)?.clone();
        assert_eq!(
            colors_keys.len(),
            info.size(),
            "split needs one (color, key) per member"
        );
        let mut colors: Vec<i32> = colors_keys.iter().map(|&(c, _)| c).collect();
        colors.sort_unstable();
        colors.dedup();
        let mut out: Vec<Option<CommId>> = vec![None; info.size()];
        for color in colors.into_iter().filter(|&c| c >= 0) {
            let mut group: Vec<(i32, u32)> = colors_keys
                .iter()
                .enumerate()
                .filter(|(_, &(c, _))| c == color)
                .map(|(crank, &(_, key))| (key, crank as u32))
                .collect();
            group.sort_unstable();
            let members: Vec<Rank> = group
                .iter()
                .map(|&(_, crank)| info.members[crank as usize])
                .collect();
            let id = self.add(members);
            for (_, crank) in group {
                out[crank as usize] = Some(id);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_comm_layout() {
        let t = CommTable::new_world(4);
        assert_eq!(t.size(COMM_WORLD).unwrap(), 4);
        assert_eq!(t.world_rank(COMM_WORLD, 2).unwrap(), Rank(2));
        assert_eq!(t.comm_rank(COMM_WORLD, Rank(3)).unwrap(), Some(3));
        assert!(t.get(CommId(1)).is_err());
        assert!(matches!(
            t.world_rank(COMM_WORLD, 7),
            Err(MpiError::InvalidRank { .. })
        ));
    }

    #[test]
    fn dup_preserves_members() {
        let mut t = CommTable::new_world(3);
        let d = t.dup(COMM_WORLD).unwrap();
        assert_ne!(d, COMM_WORLD);
        assert_eq!(
            t.get(d).unwrap().members,
            t.get(COMM_WORLD).unwrap().members
        );
    }

    #[test]
    fn split_by_parity() {
        let mut t = CommTable::new_world(4);
        // Even ranks → color 0, odd → color 1; key = −rank to reverse order.
        let ck: Vec<(i32, i32)> = (0i32..4).map(|r| (r % 2, -r)).collect();
        let out = t.split(COMM_WORLD, &ck).unwrap();
        let even = out[0].unwrap();
        let odd = out[1].unwrap();
        assert_eq!(out[2].unwrap(), even);
        assert_eq!(out[3].unwrap(), odd);
        // Reverse key order: higher old rank first.
        assert_eq!(t.get(even).unwrap().members, vec![Rank(2), Rank(0)]);
        assert_eq!(t.get(odd).unwrap().members, vec![Rank(3), Rank(1)]);
    }

    #[test]
    fn split_undefined_color() {
        let mut t = CommTable::new_world(2);
        let out = t.split(COMM_WORLD, &[(-1, 0), (0, 0)]).unwrap();
        assert_eq!(out[0], None);
        assert!(out[1].is_some());
    }
}
